"""Driver-facing query registry: one entry per implemented operator
(SURVEY.md §2 + the training-data-pipeline extensions), each over the
testdata tables in ``sf_dir``, with DuckDB oracle SQL where the
semantics are SQL-expressible (non-SQL-expressible / approximate ops
are rows-only: minhash LSH, simhash, IVF ANN, rolling fingerprints,
image features).

Column names in each Ray result match the SQL aliases exactly (the
driver hashes values after sorting columns by name).  Float columns are
avoided in results where summation order could differ between numpy and
DuckDB: money sums go through exact integer cents
(floor(x*100 + 0.5)), per-element float64 arithmetic (ratios, jaccard)
is identical on both sides by construction.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from rapidocr_ray.functions.textstats import (
    LANG_PROFILES,
    STOPWORDS,
    fingerprint_md5,
    lang_id,
    lang_id_batch,
    quality_stats,
    quality_stats_batch,
    rolling_fingerprint,
)
from rapidocr_ray.sources.parquet import read_table
from rapidocr_ray.stages.tiered import by_key, count_table, keyed_sum
from rapidocr_ray.util import broadcast_get, stack_list_column


def _read(sf_dir: str, table: str, columns=None):
    return read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(x: np.ndarray) -> np.ndarray:
    """Exact integer cents: floor(x*100 + 0.5) — same expression in SQL
    so float rounding mode cannot diverge."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


# ===========================================================================
# 1. Flagship extraction (SURVEY.md §3.1 pipeline; SQL oracle valid
#    because pages_from_documents makes extraction recover
#    documents.text byte-for-byte — tests/test_pipeline_e2e.py)
# ===========================================================================


def q_extract_pages(sf_dir: str):
    from rapidocr_ray.pipelines.extract import build_extract_pipeline
    from rapidocr_ray.sources.pages import pages_ds_from_documents

    ds = build_extract_pipeline(pages_ds_from_documents(sf_dir), dedup=False)
    return ds.select_columns(["url", "route", "extracted_text"])


SQL_EXTRACT_PAGES = """
SELECT 'https://docs.example/' || CAST(doc_id AS VARCHAR) AS url,
       CASE WHEN doc_id % 20 < 16 THEN 'html'
            WHEN doc_id % 20 < 19 THEN 'bitmap'
            ELSE 'empty' END AS route,
       CASE WHEN doc_id % 20 < 19 THEN text ELSE NULL END AS extracted_text
FROM documents
"""


def q_warc_extract_pages(sf_dir: str):
    """Same extraction flow as extract_pages but the input rides the
    REAL Common-Crawl container: per-doc payloads are wrapped as
    per-record-gzipped WARC response records and parsed back by the
    from-scratch WARC reader INSIDE each map task (sources/warc.py), so
    record framing, HTTP block split and multi-member gzip are all
    pinned by the same plain-SQL oracle."""
    from rapidocr_ray.pipelines.extract import build_extract_pipeline
    from rapidocr_ray.sources.warc import warc_pages_ds_from_documents

    ds = build_extract_pipeline(warc_pages_ds_from_documents(sf_dir), dedup=False)
    return ds.select_columns(["url", "route", "extracted_text"])


def q_pdf_extract_pages(sf_dir: str):
    """The PDF layer end-to-end: born-digital PDFs (text operators)
    extract directly, scanned PDFs (DeviceGray XObject) rasterize into
    the det->cls->rec cascade, contentless PDFs become typed error
    rows — all pinned by a plain-SQL oracle because both PDF classes
    must reproduce documents.text byte-for-byte.  Stream filter chains
    rotate per doc_id (flate / ascii85+flate / lzw / runlength /
    asciihex), so every transport filter decodes inside the workers."""
    from rapidocr_ray.pipelines.extract import build_extract_pipeline
    from rapidocr_ray.sources.pages import pdf_pages_ds_from_documents

    ds = build_extract_pipeline(pdf_pages_ds_from_documents(sf_dir), dedup=False)
    return ds.select_columns(["url", "route", "extracted_text"])


SQL_PDF_EXTRACT_PAGES = """
SELECT 'https://docs.example/' || CAST(doc_id AS VARCHAR) AS url,
       CASE doc_id % 3 WHEN 0 THEN 'pdf_text'
            WHEN 1 THEN 'pdf_raster'
            ELSE 'error' END AS route,
       CASE WHEN doc_id % 3 IN (0, 1) THEN text END AS extracted_text
FROM documents
"""


def q_extract_metrics(sf_dir: str):
    """A6/A7 analog: per-route run metrics over the extraction output."""
    from ray.data.aggregate import Count, Sum

    from rapidocr_ray.pipelines.extract import build_extract_pipeline
    from rapidocr_ray.sources.pages import pages_ds_from_documents

    ds = build_extract_pipeline(pages_ds_from_documents(sf_dir), dedup=False)

    def flags(batch: pa.Table) -> pa.Table:
        has_text = pc.cast(pc.is_valid(batch.column("extracted_text")), pa.int64())
        return pa.table(
            {
                "route": batch.column("route"),
                "has_text": has_text,
                "n_spans": pc.cast(batch.column("n_spans"), pa.int64()),
            }
        )

    return (
        ds.map_batches(flags, batch_format="pyarrow")
        .groupby("route")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("has_text", alias_name="n_with_text"),
            Sum("n_spans", alias_name="n_spans_total"),
        )
    )


SQL_EXTRACT_METRICS = """
WITH m AS (
  SELECT CASE WHEN doc_id % 20 < 16 THEN 'html'
              WHEN doc_id % 20 < 19 THEN 'bitmap'
              ELSE 'empty' END AS route,
         CASE WHEN doc_id % 20 < 19 THEN 1 ELSE 0 END AS has_text,
         CASE WHEN doc_id % 20 >= 16 AND doc_id % 20 < 19 THEN 1 ELSE 0 END AS n_spans
  FROM documents)
SELECT route, COUNT(*) AS n_docs, CAST(SUM(has_text) AS BIGINT) AS n_with_text,
       CAST(SUM(n_spans) AS BIGINT) AS n_spans_total
FROM m GROUP BY route
"""


def q_route_counts(sf_dir: str):
    """M17 routing-counts analog: grouped counts per (lang, source)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    return ds.groupby(["lang", "source"]).aggregate(Count(alias_name="n_docs"))


SQL_ROUTE_COUNTS = """
SELECT lang, source, COUNT(*) AS n_docs FROM documents GROUP BY lang, source
"""


# ===========================================================================
# 2. Relational surface (groupby/join/sort/limit/window — the Ray Data
#    expressions of the reference's aggregation/ordering semantics)
# ===========================================================================


def q_lineitem_agg(sf_dir: str):
    """Pre-aggregation pattern (ray_guide 'Aggregation at scale'):
    partial sums per batch inside map_batches, tiny global groupby."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        # all-arrow partial: zero-copy numpy views of the numeric
        # columns + the C++ hash-aggregate (Table.group_by) — no pandas
        # round trip of the string key columns (VERDICT r3 nit)
        price = np.asarray(batch.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": np.asarray(
                    batch.column("l_quantity"), dtype=np.float64
                ).astype(np.int64),
                "base_cents": _cents(price),
                "disc_cents": _cents(price * (1.0 - disc)),
                "n": np.ones(batch.num_rows, dtype=np.int64),
            }
        )
        agg = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("base_cents", "sum"), ("disc_cents", "sum"), ("n", "sum")]
        )
        # select/rename by the deterministic "<col>_sum" output names —
        # key-vs-aggregate column ORDER is pyarrow-version-dependent
        # (ADVICE r4), names are not.
        return pa.table(
            {
                "l_returnflag": agg.column("l_returnflag"),
                "l_linestatus": agg.column("l_linestatus"),
                "sum_qty": agg.column("sum_qty_sum"),
                "base_cents": agg.column("base_cents_sum"),
                "disc_cents": agg.column("disc_cents_sum"),
                "n": agg.column("n_sum"),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("base_cents", alias_name="sum_base_cents"),
            Sum("disc_cents", alias_name="sum_disc_cents"),
            Sum("n", alias_name="count_order"),
        )
    )


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       COUNT(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_top_orders(sf_dir: str):
    """O-family sort + limit with deterministic tie-break.

    Top-k shape: per-batch local top-10 (vectorized) so the global sort
    only sees ~10 rows per block — a full all-to-all sort of the table
    for a LIMIT 10 would shuffle everything."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def local_top(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o_orderkey": np.asarray(batch.column("o_orderkey")),
                "total_cents": _cents(np.asarray(batch.column("o_totalprice"))),
            }
        )
        top = df.sort_values(
            ["total_cents", "o_orderkey"], ascending=[False, True], kind="mergesort"
        ).head(10)
        return pa.Table.from_pandas(top, preserve_index=False)

    return (
        ds.map_batches(local_top, batch_format="pyarrow")
        .sort([("total_cents"), ("o_orderkey")], descending=[True, False])
        .limit(10)
    )


SQL_TOP_ORDERS = """
SELECT o_orderkey, CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS total_cents
FROM orders ORDER BY total_cents DESC, o_orderkey LIMIT 10
"""


# customers q_revenue_by_mktsegment broadcasts before it falls back to
# the bucketed join; read at call time (tests monkeypatch it)
CUSTOMER_BROADCAST_LIMIT = 20_000_000


def q_revenue_by_mktsegment(sf_dir: str):
    """Broadcast join (J3 pattern): small customer side ray.put once,
    looked up vectorized per batch — no shuffle join.  Guarded by
    ``CUSTOMER_BROADCAST_LIMIT`` (the dedup_by_url discipline): past
    the limit the customer side no longer fits one node's heap and the
    query falls back to the bucketed shuffle join."""
    import ray
    from ray.data.aggregate import Count, Sum

    n_cust = pq.ParquetFile(f"{sf_dir}/customer.parquet").metadata.num_rows
    if n_cust > CUSTOMER_BROADCAST_LIMIT:
        return _revenue_by_mktsegment_bucketed(sf_dir)

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    # the Series the workers map against, built once here: a worker
    # reads it with no build step
    ref = ray.put(
        pd.Series(
            cust.column("c_mktsegment").to_pandas().to_numpy(),
            index=cust.column("c_custkey").to_pandas(),
        )
    )

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def join(batch: pa.Table) -> pa.Table:
        segs = batch.column("o_custkey").to_pandas().map(broadcast_get(ref))
        return pa.table(
            {
                "c_mktsegment": pa.array(segs, type=pa.string()),
                "total_cents": pa.array(
                    _cents(np.asarray(batch.column("o_totalprice"))), type=pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(join, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Count(alias_name="n_orders"), Sum("total_cents", alias_name="revenue_cents")
        )
    )


def _revenue_by_mktsegment_bucketed(sf_dir: str):
    """Large-customer fallback: both sides meet by custkey in
    ``tiered.by_key``, per-bucket vectorized pandas merge + partial
    aggregate, then a tiny final groupby over (segment) — custkey
    cardinality never becomes a Ray groupby key."""
    from ray.data.aggregate import Sum

    side_schema = pa.schema(
        [
            ("key", pa.int64()),
            ("tag", pa.string()),
            ("seg", pa.string()),
            ("cents", pa.int64()),
        ]
    )

    def cust_side(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("c_custkey"), dtype=np.int64)
        n = len(k)
        return pa.table(
            {
                "key": k,
                "tag": np.full(n, "c", dtype=object),
                "seg": batch.column("c_mktsegment"),
                "cents": np.zeros(n, dtype=np.int64),
            },
            schema=side_schema,
        )

    def order_side(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("o_custkey"), dtype=np.int64)
        n = len(k)
        return pa.table(
            {
                "key": k,
                "tag": np.full(n, "o", dtype=object),
                "seg": pa.nulls(n, pa.string()),
                "cents": _cents(np.asarray(batch.column("o_totalprice"))).astype(np.int64),
            },
            schema=side_schema,
        )

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).map_batches(
        cust_side, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]).map_batches(
        order_side, batch_format="pyarrow"
    )

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        segs = g[g.tag == "c"][["key", "seg"]]
        ords = g[g.tag == "o"][["key", "cents"]]
        m = ords.merge(segs, on="key")
        part = m.groupby("seg", sort=False)["cents"].agg(["count", "sum"]).reset_index()
        return pd.DataFrame(
            {
                "c_mktsegment": part.seg,
                "n_part": part["count"].astype(np.int64),
                "cents_part": part["sum"].astype(np.int64),
            }
        )

    return (
        by_key([cust, orders], "key", bucket_join)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_part", alias_name="n_orders"),
            Sum("cents_part", alias_name="revenue_cents"),
        )
    )


SQL_REVENUE_BY_MKTSEGMENT = """
SELECT c.c_mktsegment, COUNT(*) AS n_orders,
       CAST(SUM(CAST(FLOOR(o.o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


def q_orders_lineitem_join(sf_dir: str):
    """Partitioned hash join, both sides large (ray_guide join pattern):
    both sides meet by orderkey in ``tiered.by_key``, per-bucket pandas
    merge, then a small global aggregate."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    lineitem = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def bucket_orders(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("o_orderkey"))
        return pa.table(
            {
                "orderkey": pa.array(keys, type=pa.int64()),
                "priority": batch.column("o_orderpriority"),
                "rev_cents": pa.array(np.zeros(len(keys), dtype=np.int64)),
                "side": pa.array(np.zeros(len(keys), dtype=np.int8)),
            }
        )

    def bucket_lineitem(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("l_orderkey"))
        rev = _cents(
            np.asarray(batch.column("l_extendedprice"))
            * (1.0 - np.asarray(batch.column("l_discount")))
        )
        return pa.table(
            {
                "orderkey": pa.array(keys, type=pa.int64()),
                "priority": pa.array([None] * len(keys), type=pa.string()),
                "rev_cents": pa.array(rev, type=pa.int64()),
                "side": pa.array(np.ones(len(keys), dtype=np.int8)),
            }
        )

    both = [
        orders.map_batches(bucket_orders, batch_format="pyarrow"),
        lineitem.map_batches(bucket_lineitem, batch_format="pyarrow"),
    ]

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group.side == 0][["orderkey", "priority"]]
        right = group[group.side == 1][["orderkey", "rev_cents"]]
        m = left.merge(right, on="orderkey")
        if m.empty:
            return pd.DataFrame(columns=["o_orderpriority", "revenue_cents"])
        agg = m.groupby("priority", as_index=False)["rev_cents"].sum()
        return agg.rename(
            columns={"priority": "o_orderpriority", "rev_cents": "revenue_cents"}
        )

    return (
        by_key(both, "orderkey", join_bucket)
        .groupby("o_orderpriority")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


SQL_ORDERS_LINEITEM_JOIN = """
SELECT o.o_orderpriority,
       CAST(SUM(CAST(FLOOR(l.l_extendedprice*(1-l.l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
"""


def q_orders_antijoin(sf_dir: str):
    """Distributed ANTI-join, both sides large (orders with NO
    lineitem): same bucket-by-key shuffle as the inner join, but the
    probe side ships only its per-task DISTINCT keys (a task-local
    semi-join reduction — at crawl scale the fact side is the huge
    one, and only unique keys ever leave the scan), then a per-bucket
    vectorized isin-negation and a tiny per-priority aggregate."""
    from ray.data.aggregate import Sum

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
    )
    lineitem = _read(sf_dir, "lineitem", columns=["l_orderkey"])

    def bucket_orders(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("o_orderkey"))
        return pa.table(
            {
                "orderkey": pa.array(keys, type=pa.int64()),
                "priority": batch.column("o_orderpriority"),
                "total_cents": pa.array(
                    _cents(np.asarray(batch.column("o_totalprice")))
                ),
                "side": pa.array(np.zeros(len(keys), dtype=np.int8)),
            }
        )

    def bucket_lineitem_keys(batch: pa.Table) -> pa.Table:
        keys = np.unique(np.asarray(batch.column("l_orderkey")))
        return pa.table(
            {
                "orderkey": pa.array(keys, type=pa.int64()),
                "priority": pa.array([None] * len(keys), type=pa.string()),
                "total_cents": pa.array(np.zeros(len(keys), dtype=np.int64)),
                "side": pa.array(np.ones(len(keys), dtype=np.int8)),
            }
        )

    both = [
        orders.map_batches(bucket_orders, batch_format="pyarrow"),
        lineitem.map_batches(bucket_lineitem_keys, batch_format="pyarrow"),
    ]

    def anti_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group.side == 0]
        seen = group[group.side == 1].orderkey.to_numpy()
        miss = left[~left.orderkey.isin(seen)]
        if miss.empty:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype=str),
                    "n_orders": pd.Series([], dtype=np.int64),
                    "total_cents": pd.Series([], dtype=np.int64),
                }
            )
        agg = miss.groupby("priority", as_index=False).agg(
            n_orders=("orderkey", "size"), total_cents=("total_cents", "sum")
        )
        return agg.rename(columns={"priority": "o_orderpriority"}).astype(
            {"n_orders": np.int64, "total_cents": np.int64}
        )

    return (
        by_key(both, "orderkey", anti_bucket)
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("total_cents", alias_name="total_cents"),
        )
    )


SQL_ORDERS_ANTIJOIN = """
SELECT o.o_orderpriority,
       count(*) AS n_orders,
       CAST(SUM(CAST(FLOOR(o.o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
GROUP BY o.o_orderpriority
"""


def q_user_running_totals(sf_dir: str):
    """Per-key running-window prefix aggregate (the SQL window-function
    shape: SUM/COUNT OVER PARTITION BY user ORDER BY ts): one shuffle
    keyed by user, then an in-group sort + vectorized cumsum.  The
    deterministic tiebreak (ts, event_id) makes the running values
    order-stable; money through exact integer cents.  Per-user history
    is the partitioning assumption — a single user's events must fit a
    group (true for session-scale keys; a pathological single-key
    corpus would salt the key and prefix-merge, the documented
    dup_groups-style escalation)."""
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        cents = _cents(g["value"].to_numpy())
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "running_n": np.arange(1, len(g) + 1, dtype=np.int64),
                "running_cents": np.cumsum(cents).astype(np.int64),
            }
        )

    return ds.groupby("user_id").map_groups(running, batch_format="pandas")


SQL_USER_RUNNING_TOTALS = """
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT) AS running_n,
       CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) OVER w AS BIGINT) AS running_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""


def q_user_event_gaps(sf_dir: str):
    """LAG window primitive: per-event gap to the user's PREVIOUS event
    (MICROSECONDS — the storage resolution, so the delta is an exact
    integer on both engines; date_diff('second') counts boundary
    crossings and would diverge from floor on sub-second timestamps.
    First event per user gets a -1 sentinel so the column stays int64).
    Completes the window family (running totals = prefix SUM,
    sessionize = gap THRESHOLD, this = the raw LAG delta).  Same scale
    shape as user_running_totals: one shuffle keyed by user, in-group
    sort (ts, event_id) tiebreak, vectorized diff — a user's history
    fits a group."""
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        gap = np.empty(len(g), dtype=np.int64)
        gap[0] = -1
        if len(g) > 1:
            gap[1:] = ts[1:] - ts[:-1]
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "gap_us": gap,
            }
        )

    return ds.groupby("user_id").map_groups(gaps, batch_format="pandas")


SQL_USER_EVENT_GAPS = """
SELECT event_id, user_id,
       CAST(COALESCE(
           date_diff('microsecond', LAG(ts) OVER w, ts), -1) AS BIGINT) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_dataset_split(sf_dir: str):
    """Deterministic 98/1/1 train/val/test split — the reproducible
    assignment every training corpus needs (hash-based, so re-runs and
    incremental ingests land each url in the same split forever).
    Split = multiplicative doc_id hash mod 100: <98 train, 98 val, 99
    test.  Embarrassingly parallel: one streaming map_batches, no
    shuffle; the oracle is a CASE over the same HUGEINT positive-mod
    hash."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def split(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        hv = ((ids * np.uint64(2654435761)) % np.uint64(2**32)) % np.uint64(100)
        names = np.array(["train", "val", "test"], dtype=object)
        sel = np.where(hv < 98, 0, np.where(hv == 98, 1, 2))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "split": pa.array(names[sel], type=pa.string()),
            }
        )

    return ds.map_batches(split, batch_format="pyarrow")


SQL_DATASET_SPLIT = """
SELECT doc_id, lang,
       CASE WHEN h < 98 THEN 'train' WHEN h = 98 THEN 'val' ELSE 'test' END
           AS split
FROM (SELECT doc_id, lang,
             (((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
               + 4294967296) % 4294967296) % 100 AS h
      FROM documents)
"""


def q_user_running_totals_salted(sf_dir: str):
    """The documented single-hot-key ESCALATION of user_running_totals,
    implemented for real: a pathological user whose whole history cannot
    fit one task is split into TIME-RANGE salt buckets (hour floor —
    range salts stay contiguous in the running order, unlike hash
    salts), each bucket computes its local prefix sums, a tiny
    per-(user, bucket) totals table derives exclusive cross-bucket
    offsets, and a second bucket-keyed pass adds them.  Output and
    oracle are IDENTICAL to user_running_totals (equality-pinned) — the
    price of skew safety is one extra bounded shuffle of narrow rows.

    Scale shape: every shuffled group is bounded by a user-HOUR (not a
    user); the offsets table is users x active-hours rows and never
    holds raw events; no driver-side collection anywhere."""
    EVENT_ROW, OFFSET_ROW = 0, 1
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        hb = pc.cast(pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64())
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "cents": pa.array(_cents(np.asarray(batch.column("value")))),
                "hb": hb,
            }
        )

    rows = ds.map_batches(prep, batch_format="pyarrow")

    def local_prefix(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        out = pd.DataFrame(
            {
                "event_id": g.event_id.to_numpy(np.int64),
                "user_id": g.user_id.to_numpy(np.int64),
                "hb": g.hb.to_numpy(np.int64),
                "local_n": np.arange(1, len(g) + 1, dtype=np.int64),
                "local_cents": np.cumsum(g.cents.to_numpy(np.int64)).astype(np.int64),
            }
        )
        return out

    local = rows.groupby(["user_id", "hb"]).map_groups(
        local_prefix, batch_format="pandas"
    )
    # tiny totals: last local row per (user, bucket) — derived from the
    # local table by a per-batch prune + the same bounded groupby
    def bucket_totals(g: pd.DataFrame) -> pd.DataFrame:
        last = g.loc[g.local_n.idxmax()]
        return pd.DataFrame(
            {
                "user_id": [int(last.user_id)],
                "hb": [int(last.hb)],
                "tot_n": [int(last.local_n)],
                "tot_cents": [int(last.local_cents)],
            }
        )

    totals = local.groupby(["user_id", "hb"]).map_groups(
        bucket_totals, batch_format="pandas"
    )

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("hb")
        return pd.DataFrame(
            {
                "user_id": g.user_id.to_numpy(np.int64),
                "hb": g.hb.to_numpy(np.int64),
                "off_n": np.concatenate(
                    [[0], np.cumsum(g.tot_n.to_numpy(np.int64))[:-1]]
                ).astype(np.int64),
                "off_cents": np.concatenate(
                    [[0], np.cumsum(g.tot_cents.to_numpy(np.int64))[:-1]]
                ).astype(np.int64),
            }
        )

    # per-user offset derivation shuffles only users x active-hours rows
    off = totals.groupby("user_id").map_groups(offsets, batch_format="pandas")

    def tag_local(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.full(b.num_rows, EVENT_ROW), type=pa.int8()),
                "user_id": b.column("user_id"),
                "hb": b.column("hb"),
                "event_id": b.column("event_id"),
                "local_n": b.column("local_n"),
                "local_cents": b.column("local_cents"),
                "off_n": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "off_cents": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            }
        )

    def tag_off(b: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(b.num_rows, dtype=np.int64))
        return pa.table(
            {
                "kind": pa.array(np.full(b.num_rows, OFFSET_ROW), type=pa.int8()),
                "user_id": b.column("user_id"),
                "hb": b.column("hb"),
                "event_id": z,
                "local_n": z,
                "local_cents": z,
                "off_n": b.column("off_n"),
                "off_cents": b.column("off_cents"),
            }
        )

    merged = local.map_batches(tag_local, batch_format="pyarrow").union(
        off.map_batches(tag_off, batch_format="pyarrow")
    )

    def add_offsets(g: pd.DataFrame) -> pd.DataFrame:
        orow = g[g.kind == OFFSET_ROW]
        ev = g[g.kind == EVENT_ROW]
        on = int(orow.off_n.iloc[0])
        oc = int(orow.off_cents.iloc[0])
        return pd.DataFrame(
            {
                "event_id": ev.event_id.to_numpy(np.int64),
                "user_id": ev.user_id.to_numpy(np.int64),
                "running_n": (ev.local_n.to_numpy(np.int64) + on).astype(np.int64),
                "running_cents": (
                    ev.local_cents.to_numpy(np.int64) + oc
                ).astype(np.int64),
            }
        )

    return merged.groupby(["user_id", "hb"]).map_groups(
        add_offsets, batch_format="pandas"
    )


def q_score_filter(sf_dir: str):
    """M15 filter analog as a standalone relational op: vectorized
    predicate inside map_batches (score >= threshold)."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "value"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("value"), pa.scalar(90.0))).select(
            ["event_id", "user_id", "event_type"]
        ),
        batch_format="pyarrow",
    )


SQL_SCORE_FILTER = """
SELECT event_id, user_id, event_type FROM events WHERE value >= 90.0
"""


def q_dedup_latest_wins(sf_dir: str):
    """North-rule dedup semantics on the events table: one row per
    user_id, latest (ts, event_id) wins — the url/warc_ts analog.

    Keyed by user_id in ``tiered.by_key`` rather than per-key map_groups:
    one vectorized pandas call per bucket, not one Python call per
    user — the only shape that survives web-scale key cardinality."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def latest(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        out = g.drop_duplicates("user_id", keep="last")
        return out[["user_id", "event_id"]]

    return by_key(ds, "user_id", latest)


SQL_DEDUP_LATEST_WINS = """
SELECT user_id, event_id FROM (
  SELECT user_id, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
  FROM events) WHERE rn = 1
"""


def q_grouped_concat(sf_dir: str):
    """A5 analog as a standalone op: ordered grouped string concat
    (per user, event_type joined by ',' in (ts, event_id) order)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])

    def concat(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        agg = g.groupby("user_id", sort=False)["event_type"].agg(",".join)
        return agg.rename("event_seq").reset_index()

    return by_key(ds, "user_id", concat)


SQL_GROUPED_CONCAT = """
SELECT user_id, string_agg(event_type, ',' ORDER BY ts, event_id) AS event_seq
FROM events GROUP BY user_id
"""


def q_events_window(sf_dir: str):
    """Tumbling-window aggregate (streaming-shaped workload per
    ray_guide): 1-hour windows per user over the ordered event log.

    Partial-aggregate inside map_batches (C-level pandas groupby sum
    per batch), then ONE ``tiered.by_key`` shuffle and a vectorized final
    merge — the (user, window) key space grows with users x time, so a
    Ray groupby over it would shuffle-sort unbounded key cardinality."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def window_partial(batch: pa.Table) -> pa.Table:
        # Arrow-native partial (no pandas round-trip): floor_temporal
        # for the window key, Table.group_by for the C-level combine.
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "window_start": pc.floor_temporal(batch.column("ts"), unit="hour"),
                "value_cents": _cents(np.asarray(batch.column("value"))),
            }
        )
        agg = t.group_by(["user_id", "window_start"]).aggregate(
            [("value_cents", "sum"), ("value_cents", "count")]
        )
        return pa.table(
            {
                "user_id": agg.column("user_id"),
                "window_start": agg.column("window_start"),
                "n_events": pc.cast(agg.column("value_cents_count"), pa.int64()),
                "value_cents": agg.column("value_cents_sum"),
            }
        )

    part = ds.map_batches(window_partial, batch_format="pyarrow")

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["user_id", "window_start"], as_index=False)[
            ["n_events", "value_cents"]
        ].sum()
        out["n_events"] = out.n_events.astype(np.int64)
        out["value_cents"] = out.value_cents.astype(np.int64)
        return out

    return by_key(part, "user_id", merge)


SQL_EVENTS_WINDOW = """
SELECT user_id, date_trunc('hour', ts) AS window_start, COUNT(*) AS n_events,
       CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
FROM events GROUP BY user_id, date_trunc('hour', ts)
"""


def q_topk_per_group(sf_dir: str):
    """Grouped top-k: top-3 orders per customer by (total_cents desc,
    orderkey asc) — ``tiered.by_key`` shuffle + vectorized within-bucket."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "o_orderkey": batch.column("o_orderkey"),
                "total_cents": pa.array(
                    _cents(np.asarray(batch.column("o_totalprice"))), type=pa.int64()
                ),
            }
        )

    ds = ds.map_batches(cents, batch_format="pyarrow")

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["o_custkey", "total_cents", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = g.groupby("o_custkey", sort=False).head(3)
        return out[["o_custkey", "o_orderkey", "total_cents"]]

    return by_key(ds, "o_custkey", topk)


SQL_TOPK_PER_GROUP = """
SELECT o_custkey, o_orderkey, total_cents FROM (
  SELECT o_custkey, o_orderkey,
         CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS total_cents,
         ROW_NUMBER() OVER (PARTITION BY o_custkey
                            ORDER BY FLOOR(o_totalprice*100 + 0.5) DESC, o_orderkey) AS rn
  FROM orders) WHERE rn <= 3
"""


def q_sessionize(sf_dir: str):
    """Session windows (gap > 30 min starts a new session) per user —
    the streaming-shaped workload pattern: partition by key, sort by ts
    within partition, window inside map_groups."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def sessionize(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g.user_id != g.user_id.shift()
        gap = g.ts - g.ts.shift()
        new_session = new_user | (gap > pd.Timedelta(minutes=30))
        g = g.assign(session_id=new_session.groupby(g.user_id).cumsum().astype(np.int64))
        agg = g.groupby(["user_id", "session_id"], sort=False).agg(
            n_events=("event_id", "size"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
        )
        return agg.reset_index()

    return by_key(ds, "user_id", sessionize)


SQL_SESSIONIZE = """
WITH e AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL '30 minutes'
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT user_id, event_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM e)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       COUNT(*) AS n_events, MIN(ts) AS session_start, MAX(ts) AS session_end
FROM s GROUP BY user_id, session_id
"""


def q_asof_join(sf_dir: str):
    """As-of join (ray_guide pattern): for every purchase event, the
    most recent strictly-earlier click by the same user, via
    pd.merge_asof inside per-bucket groups."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])

    def asof(group: pd.DataFrame) -> pd.DataFrame:
        purchases = group[group.event_type == "purchase"].sort_values("ts", kind="mergesort")
        clicks = group[group.event_type == "click"].sort_values("ts", kind="mergesort")
        if purchases.empty:
            return pd.DataFrame(columns=["purchase_id", "last_click_ts"])
        m = pd.merge_asof(
            purchases[["event_id", "ts", "user_id"]],
            clicks[["ts", "user_id"]].rename(columns={"ts": "last_click_ts"}),
            left_on="ts",
            right_on="last_click_ts",
            by="user_id",
            allow_exact_matches=False,
        )
        out = m.rename(columns={"event_id": "purchase_id"})[["purchase_id", "last_click_ts"]]
        return out

    return by_key(ds, "user_id", asof)


SQL_ASOF_JOIN = """
SELECT p.event_id AS purchase_id,
       (SELECT MAX(c.ts) FROM events c
        WHERE c.user_id = p.user_id AND c.event_type = 'click' AND c.ts < p.ts)
           AS last_click_ts
FROM events p WHERE p.event_type = 'purchase'
"""


def q_user_distinct_types(sf_dir: str):
    """Exact grouped distinct count via per-batch partial set union
    (the mergeable-sketch shape with an exact set as the 'sketch')."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        # per-batch combiner: distinct (user, type) pairs via the C++
        # hash-aggregate (no pandas round trip of the string column)
        # — never a python call per user
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    part = ds.map_batches(partial, batch_format="pyarrow")

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["user_id", "event_type"])
        agg = g.groupby("user_id", sort=False)["event_type"].nunique()
        return pd.DataFrame(
            {
                "user_id": agg.index.to_numpy().astype(np.int64),
                "n_types": agg.to_numpy().astype(np.int64),
            }
        )

    return by_key(part, "user_id", merge)


SQL_USER_DISTINCT_TYPES = """
SELECT user_id, CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_types
FROM events GROUP BY user_id
"""


# ===========================================================================
# 3. Text analysis (training-data extensions)
# ===========================================================================


def q_token_counts(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        # n_tokens = n_spaces + 1 under the single-space tokenizer
        n = pc.add(pc.count_substring(batch.column("text"), " "), 1)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_tokens": pc.cast(n, pa.int64())}
        )

    return ds.map_batches(count, batch_format="pyarrow")


SQL_TOKEN_COUNTS = """
SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens FROM documents
"""


def q_top_terms_per_lang(sf_dir: str, k: int = 5):
    """Corpus term statistics: top-k tokens per language by exact
    count (count desc, token asc tie-break) — the TF-style vocabulary
    op a crawl pipeline runs before filtering/weighting.

    Scale shape: per-batch partial counts (Arrow split + flatten +
    Table.group_by — the token EXPLOSION never leaves the task), ONE
    ``tiered.by_key`` shuffle on the token (token determines bucket,
    so per-bucket merged counts are exact), and per-bucket per-lang
    top-k pruning BEFORE the final tiny per-lang reduce — the second
    shuffle carries at most N_BUCKETS x n_langs x k rows, never the
    vocabulary."""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        langs = np.repeat(np.asarray(batch.column("lang"), dtype=object), lens)
        flat = pc.list_flatten(toks)
        t = pa.table(
            {
                "lang": pa.array(langs, type=pa.string()),
                "token": flat,
                "n": np.ones(len(flat), dtype=np.int64),
            }
        )
        agg = t.group_by(["lang", "token"]).aggregate([("n", "sum")])
        return pa.table(
            {
                "lang": agg.column("lang"),
                "token": agg.column("token"),
                "n": agg.column("n_sum"),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow")

    def merge_prune(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["lang", "token"], as_index=False)["n"].sum()
        # exact within the bucket (token -> one bucket): the global
        # top-k per lang is among the per-bucket per-lang top-k
        out = out.sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        return out.groupby("lang", sort=False).head(k)

    counts = by_key(part, "token", merge_prune)

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["n", "token"], ascending=[False, True], kind="mergesort").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["n"] = g.n.astype(np.int64)
        return g[["lang", "token", "n", "rank"]]

    return counts.groupby("lang").map_groups(topk, batch_format="pandas")


def q_heavy_hitter_tokens(sf_dir: str, fraction: float = 0.02):
    """Distributed Misra-Gries heavy hitters + exact verify: tokens
    with count >= fraction of all tokens.  The MG summary bounds
    per-task memory regardless of vocabulary; the exact verification
    pass makes the output the EXACT heavy-hitter set, so the sketch
    plumbing (compression, decrement accounting, bucketed merge,
    candidate broadcast) is hash-checked end-to-end."""
    from rapidocr_ray.stages.sketches import misra_gries_heavy_hitters

    ds = _read(sf_dir, "documents", columns=["text"])
    return misra_gries_heavy_hitters(ds, fraction=fraction)


SQL_HEAVY_HITTER_TOKENS = """
WITH toks AS (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
SELECT token, n FROM (
  SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM toks GROUP BY token)
WHERE n >= (SELECT 0.02 * COUNT(*) FROM toks)
"""


def q_lang_distinct_hll(sf_dir: str):
    """Per-language distinct-token count: exact (bucketed distinct —
    the hash-checked column) alongside a merged HyperLogLog estimate;
    the estimate-within-tolerance boolean is the pinned invariant
    (constant-TRUE oracle), so a broken register merge or estimator
    flips a row."""
    from rapidocr_ray.stages.sketches import hll_distinct_tokens_per_key

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    return hll_distinct_tokens_per_key(ds, key_col="lang")


SQL_LANG_DISTINCT_HLL = """
WITH toks AS (
  SELECT lang, unnest(string_split(text, ' ')) AS token FROM documents)
SELECT lang, CAST(COUNT(DISTINCT token) AS BIGINT) AS n_distinct,
       TRUE AS hll_ok
FROM toks GROUP BY lang
"""


SQL_TOP_TERMS_PER_LANG = """
WITH toks AS (
  SELECT lang, unnest(string_split(text, ' ')) AS token FROM documents
), counts AS (
  SELECT lang, token, COUNT(*) AS n FROM toks GROUP BY lang, token
), r AS (
  SELECT lang, token, n,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, token) AS rank
  FROM counts
)
SELECT lang, token, CAST(n AS BIGINT) AS n, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5
"""


def q_quality_scores(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        stats = quality_stats_batch(batch.column("text"))
        return pa.table({"doc_id": batch.column("doc_id"), **stats})

    return ds.map_batches(score, batch_format="pyarrow")


_SW = ",".join(f"'{w}'" for w in STOPWORDS)
SQL_QUALITY_SCORES = f"""
WITH t AS (SELECT doc_id, text, string_split(text, ' ') AS toks FROM documents)
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(toks) AS BIGINT) AS n_tokens,
       CAST(length(text) - len(toks) + 1 AS DOUBLE) / len(toks) AS avg_word_len,
       CAST(len(list_filter(toks, x -> x IN ({_SW}))) AS DOUBLE) / len(toks) AS stopword_ratio
FROM t
"""


def q_curation_filter(sf_dir: str):
    """End-to-end training-data curation pipeline (the shape a corpus
    sweep actually runs): deterministic hash downsample -> vectorized
    quality gate (token count, stopword ratio, word-length band) ->
    exact dedup keep-min-id — all streaming map_batches + the bounded
    bucket shuffle, composed from the engine's existing kernels."""
    from rapidocr_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def gate(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        keep = (ids * np.uint64(2654435761)) % np.uint64(97) < 80
        stats = quality_stats_batch(batch.column("text"))
        nt = np.asarray(stats["n_tokens"])
        sw = np.asarray(stats["stopword_ratio"])
        awl = np.asarray(stats["avg_word_len"])
        keep &= (nt >= 5) & (sw >= 0.05) & (awl >= 2.0) & (awl <= 12.0)
        if keep.all():
            return batch
        return batch.filter(pa.array(keep))

    survivors = ds.map_batches(gate, batch_format="pyarrow")

    def proj(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id"])

    return exact_dedup(survivors).map_batches(proj, batch_format="pyarrow")


SQL_CURATION_FILTER = f"""
WITH t AS (SELECT doc_id, text, string_split(text, ' ') AS toks FROM documents),
q AS (
  SELECT doc_id, text FROM t
  WHERE (doc_id * 2654435761) % 97 < 80
    AND len(toks) >= 5
    AND CAST(len(list_filter(toks, x -> x IN ({_SW}))) AS DOUBLE) / len(toks) >= 0.05
    AND CAST(length(text) - len(toks) + 1 AS DOUBLE) / len(toks) BETWEEN 2.0 AND 12.0
)
SELECT min(doc_id) AS doc_id FROM q GROUP BY text
"""


def q_lang_id(sf_dir: str):
    """Stopword-profile language ID (n-gram heuristic family)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def guess(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_guess": pa.array(lang_id_batch(batch.column("text")), type=pa.string()),
            }
        )

    return ds.map_batches(guess, batch_format="pyarrow")


def _profile_expr(lang: str) -> str:
    words = ",".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))
    return f"len(list_intersect(toks, [{words}]))"


_SCORES = {lang: _profile_expr(lang) for lang in sorted(LANG_PROFILES)}
_GREATEST = "greatest(" + ",".join(f"s_{lang}" for lang in sorted(LANG_PROFILES)) + ")"
_CASE = "CASE WHEN " + _GREATEST + " = 0 THEN 'und' " + " ".join(
    f"WHEN s_{lang} = {_GREATEST} THEN '{lang}'" for lang in sorted(LANG_PROFILES)
) + " END"
SQL_LANG_ID = f"""
WITH t AS (SELECT doc_id, list_distinct(string_split(lower(text), ' ')) AS toks FROM documents),
s AS (SELECT doc_id, {", ".join(f"{expr} AS s_{lang}" for lang, expr in _SCORES.items())} FROM t)
SELECT doc_id, {_CASE} AS lang_guess FROM s
"""


def q_fingerprints(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {"doc_id": ids, "fp_md5": [fingerprint_md5(t) for t in texts]},
            schema=pa.schema([("doc_id", pa.int64()), ("fp_md5", pa.string())]),
        )

    return ds.map_batches(fp, batch_format="pyarrow")


SQL_FINGERPRINTS = "SELECT doc_id, md5(text) AS fp_md5 FROM documents"


def q_rolling_fingerprints(sf_dir: str):
    """Winnowing-style rolling-hash fingerprint — hash-checked: the
    min-over-windows polynomial hash is expressible in DuckDB HUGEINT
    arithmetic (SQL_ROLLING_FINGERPRINTS), so the driver verifies the
    exact values.  ASCII-text precondition shared with the other text
    oracles (utf-8 multibyte would diverge from SQL ascii())."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        # enforce (don't assume) the ASCII precondition: the Python
        # kernel hashes UTF-8 BYTES while the SQL oracle hashes code
        # points (ascii()/substr) — identical only for ASCII text.
        # Non-ASCII docs are FILTERED (a recorded data-dependent
        # exclusion, mirrored by the oracle's octet_length=length
        # predicate), not raised — one bad row must not abort the whole
        # Ray job (typed-error convention, ADVICE r3).
        ascii_mask = pc.fill_null(pc.string_is_ascii(batch.column("text")), False)
        if not pc.all(ascii_mask).as_py():
            batch = batch.filter(ascii_mask)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {"doc_id": ids, "fp_roll": [rolling_fingerprint(t) for t in texts]},
            schema=pa.schema([("doc_id", pa.int64()), ("fp_roll", pa.uint64())]),
        )

    return ds.map_batches(fp, batch_format="pyarrow")


_ROLL_M = (1 << 61) - 1
_ROLL_P_SQL = "[" + ",".join(
    f"{pow(1000003, 15 - j, _ROLL_M)}::HUGEINT" for j in range(16)
) + "]"
# identity: the rolling recurrence's final value per window equals the
# direct polynomial sum mod M (mod arithmetic is associative), so the
# SQL computes each window directly; short (<16 byte) docs take the
# zero-padded single-window branch like the Python kernel
SQL_ROLLING_FINGERPRINTS = f"""
WITH w AS (
  SELECT doc_id,
         list_sum(list_transform(range(16),
             j -> ascii(substr(text, i + j, 1))::HUGEINT * ({_ROLL_P_SQL})[j + 1]))
           % {_ROLL_M}::HUGEINT AS h
  FROM documents, LATERAL (SELECT unnest(range(1, length(text) - 14)) AS i)
  WHERE length(text) >= 16 AND strlen(text) = length(text)
  UNION ALL
  SELECT doc_id,
         list_sum(list_transform(range(16),
             j -> (CASE WHEN j < length(text)
                        THEN ascii(substr(text, j + 1, 1)) ELSE 0 END)::HUGEINT
                  * ({_ROLL_P_SQL})[j + 1]))
           % {_ROLL_M}::HUGEINT AS h
  FROM documents WHERE length(text) < 16 AND strlen(text) = length(text)
)
SELECT doc_id, CAST(min(h) AS UBIGINT) AS fp_roll FROM w GROUP BY doc_id
"""


def q_substring_dup_pairs(sf_dir: str, window: int = 16, cap: int = 64):
    """Exact substring-share dedup (the 'shared long n-gram' family of
    training-data dedup): pairs of documents sharing ANY 16-byte
    substring, found via the full set of rolling window hashes per doc.

    Scale shape: the window explosion stays in the task (per-doc
    DISTINCT hashes only), ONE ``tiered.by_key`` shuffle on the hash
    value (a hash lives in one bucket, so the hot-hash frequency cap and
    the pair join are exact per bucket), pair formation is a vectorized
    self-merge, and a second ``by_key`` shuffle dedups pairs that share
    multiple substrings.  Hashes shared by more than ``cap`` docs are
    SKIPPED as stop-substrings (boilerplate phrases would otherwise
    form quadratic pair blowups at crawl scale) — the oracle mirrors
    the cap with an identical HAVING predicate, so the exclusion rule
    is hash-checked, not a silent truncation.  ASCII precondition
    shared with the rolling-fingerprint oracle; sub-window docs have
    no full window and produce no pairs (oracle: length >= 16)."""
    from rapidocr_ray.functions.textstats import rolling_window_hashes

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ascii_mask = pc.fill_null(pc.string_is_ascii(batch.column("text")), False)
        if not pc.all(ascii_mask).as_py():
            batch = batch.filter(ascii_mask)
        # INTENTIONAL to_pylist: oracle-pinned per-doc rolling hash
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_h, out_id = [], []
        for d, t in zip(ids, texts):
            hs = rolling_window_hashes(t, window)
            out_h.extend(hs)
            out_id.extend([d] * len(hs))
        return pa.table(
            {
                "h": np.asarray(out_h, dtype=np.uint64),
                "doc_id": np.asarray(out_id, dtype=np.int64),
            }
        )

    part = ds.map_batches(explode, batch_format="pyarrow")

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        docs_per_h = g.groupby("h")["doc_id"].nunique()
        keep = g[g.h.isin(docs_per_h[docs_per_h <= cap].index)]
        m = keep.merge(keep, on="h")
        return m[m.doc_id_x < m.doc_id_y][["doc_id_x", "doc_id_y"]].drop_duplicates()

    cand = by_key(part, "h", pairs_in_bucket)

    def distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(["doc_id_x", "doc_id_y"]).sort_values(
            ["doc_id_x", "doc_id_y"]
        )
        return pd.DataFrame(
            {
                "doc_a": out.doc_id_x.astype(np.int64),
                "doc_b": out.doc_id_y.astype(np.int64),
            }
        )

    return by_key(cand, "doc_id_x", distinct_pairs)


SQL_SUBSTRING_DUP_PAIRS = f"""
WITH w AS (
  SELECT doc_id,
         list_sum(list_transform(range(16),
             j -> ascii(substr(text, i + j, 1))::HUGEINT * ({{P}})[j + 1]))
           % {{M}}::HUGEINT AS h
  FROM documents, LATERAL (SELECT unnest(range(1, length(text) - 14)) AS i)
  WHERE length(text) >= 16 AND strlen(text) = length(text)
), d AS (SELECT DISTINCT doc_id, h FROM w),
ok AS (SELECT h FROM d GROUP BY h HAVING count(*) <= 64)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM d a JOIN d b ON a.h = b.h AND a.doc_id < b.doc_id
WHERE a.h IN (SELECT h FROM ok)
GROUP BY 1, 2
""".replace("{P}", _ROLL_P_SQL).replace("{M}", str(_ROLL_M))


def q_decontam_flags(sf_dir: str, window: int = 16):
    """Benchmark decontamination: flag every corpus document sharing
    ANY 16-byte substring with the benchmark subset (``doc_id % 97 ==
    0`` — the deterministic stand-in for a held-out eval suite).  The
    canonical training-data shape: the benchmark side is tiny (MBs of
    eval suites vs TBs of corpus), so its DISTINCT window-hash set is
    computed once, ``ray.put`` ONCE, and read once per worker process
    (``util.broadcast_get``) — the corpus then streams through one map_batches with
    NO shuffle at all; nothing but the flags column moves.  ASCII and
    sub-window preconditions shared with the rolling-fingerprint
    oracle family (non-ASCII docs are filtered, <16-byte docs carry no
    window and flag 0)."""
    import ray

    from rapidocr_ray.functions.textstats import rolling_window_hashes

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_hashes(batch: pa.Table) -> pa.Table:
        is_bench = pa.array(
            batch.column("doc_id").to_numpy(zero_copy_only=False) % 97 == 0
        )
        ascii_ok = pc.fill_null(pc.string_is_ascii(batch.column("text")), False)
        b = batch.filter(pc.and_(is_bench, ascii_ok))
        hs: set[int] = set()
        # INTENTIONAL to_pylist: oracle-pinned per-doc rolling hash
        for t in b.column("text").to_pylist():
            hs.update(rolling_window_hashes(t, window))
        return pa.table({"h": pa.array(sorted(hs), type=pa.uint64())})

    # small side: the benchmark hash set is bounded by benchmark bytes,
    # not corpus size — take_all here is the documented broadcast build
    bench_parts = ds.map_batches(bench_hashes, batch_format="pyarrow").take_all()
    bench_set = frozenset(int(r["h"]) for r in bench_parts)
    ref = ray.put(bench_set)

    def flag(batch: pa.Table) -> pa.Table:
        bset = broadcast_get(ref)
        ascii_mask = pc.fill_null(pc.string_is_ascii(batch.column("text")), False)
        if not pc.all(ascii_mask).as_py():
            batch = batch.filter(ascii_mask)
        # INTENTIONAL to_pylist: oracle-pinned per-doc rolling hash
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_flag = [], []
        for d, t in zip(ids, texts):
            if d % 97 == 0:
                continue  # benchmark rows are not corpus rows
            hit = any(h in bset for h in rolling_window_hashes(t, window))
            out_id.append(d)
            out_flag.append(1 if hit else 0)
        return pa.table(
            {"doc_id": pa.array(out_id, type=pa.int64()),
             "contaminated": pa.array(out_flag, type=pa.int64())}
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def q_decontam_overlap_frac(sf_dir: str, window: int = 16):
    """Contamination REPORT (decontam_flags' graded sibling): per
    corpus doc, the fraction of its DISTINCT 16-byte windows that
    appear anywhere in the benchmark subset (doc_id % 97 == 0) —
    the thresholdable statistic eval-decontamination sweeps chart,
    where the binary flag only answers yes/no.  frac_milli =
    1000*hits // n_windows (0 for sub-window docs).  Same scale shape
    as decontam_flags: benchmark hash set broadcast once, corpus
    streams with NO shuffle; ASCII precondition shared with the
    rolling-hash oracle family."""
    import ray

    from rapidocr_ray.functions.textstats import rolling_window_hashes

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def bench_hashes(batch: pa.Table) -> pa.Table:
        is_bench = pa.array(
            batch.column("doc_id").to_numpy(zero_copy_only=False) % 97 == 0
        )
        ascii_ok = pc.fill_null(pc.string_is_ascii(batch.column("text")), False)
        b = batch.filter(pc.and_(is_bench, ascii_ok))
        hs: set[int] = set()
        # INTENTIONAL to_pylist: oracle-pinned per-doc rolling hash
        for t in b.column("text").to_pylist():
            hs.update(rolling_window_hashes(t, window))
        return pa.table({"h": pa.array(sorted(hs), type=pa.uint64())})

    bench_parts = ds.map_batches(bench_hashes, batch_format="pyarrow").take_all()
    bench_set = frozenset(int(r["h"]) for r in bench_parts)
    ref = ray.put(bench_set)

    def frac(batch: pa.Table) -> pa.Table:
        bset = broadcast_get(ref)
        ascii_mask = pc.fill_null(pc.string_is_ascii(batch.column("text")), False)
        if not pc.all(ascii_mask).as_py():
            batch = batch.filter(ascii_mask)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_nw, out_hit, out_frac = [], [], [], []
        for d, t in zip(ids, texts):
            if d % 97 == 0:
                continue
            hs = rolling_window_hashes(t, window)  # distinct by contract
            hits = sum(1 for h in hs if h in bset)
            out_id.append(d)
            out_nw.append(len(hs))
            out_hit.append(hits)
            out_frac.append(1000 * hits // len(hs) if hs else 0)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "n_windows": pa.array(out_nw, type=pa.int64()),
                "n_hits": pa.array(out_hit, type=pa.int64()),
                "overlap_milli": pa.array(out_frac, type=pa.int64()),
            }
        )

    return ds.map_batches(frac, batch_format="pyarrow")


SQL_DECONTAM_OVERLAP_FRAC = """
WITH w AS (
  SELECT DISTINCT doc_id,
         list_sum(list_transform(range(16),
             j -> ascii(substr(text, i + j, 1))::HUGEINT * ({P})[j + 1]))
           % {M}::HUGEINT AS h
  FROM documents, LATERAL (SELECT unnest(range(1, length(text) - 14)) AS i)
  WHERE length(text) >= 16 AND strlen(text) = length(text)
), b AS (SELECT DISTINCT h FROM w WHERE doc_id % 97 = 0),
s AS (SELECT w.doc_id, CAST(COUNT(*) AS BIGINT) AS n_windows,
             CAST(COUNT(b.h) AS BIGINT) AS n_hits
      FROM w LEFT JOIN b ON b.h = w.h
      WHERE w.doc_id % 97 != 0 GROUP BY w.doc_id)
SELECT d.doc_id,
       CAST(COALESCE(s.n_windows, 0) AS BIGINT) AS n_windows,
       CAST(COALESCE(s.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(CASE WHEN COALESCE(s.n_windows, 0) > 0
                 THEN 1000 * s.n_hits // s.n_windows ELSE 0 END AS BIGINT)
           AS overlap_milli
FROM documents d LEFT JOIN s USING (doc_id)
WHERE d.doc_id % 97 != 0 AND strlen(d.text) = length(d.text)
""".replace("{P}", _ROLL_P_SQL).replace("{M}", str(_ROLL_M))


SQL_DECONTAM_FLAGS = f"""
WITH w AS (
  SELECT doc_id,
         list_sum(list_transform(range(16),
             j -> ascii(substr(text, i + j, 1))::HUGEINT * ({{P}})[j + 1]))
           % {{M}}::HUGEINT AS h
  FROM documents, LATERAL (SELECT unnest(range(1, length(text) - 14)) AS i)
  WHERE length(text) >= 16 AND strlen(text) = length(text)
), b AS (SELECT DISTINCT h FROM w WHERE doc_id % 97 = 0)
SELECT d.doc_id,
       CAST(CASE WHEN EXISTS (
           SELECT 1 FROM w JOIN b ON w.h = b.h WHERE w.doc_id = d.doc_id
       ) THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM documents d
WHERE d.doc_id % 97 != 0 AND strlen(d.text) = length(d.text)
""".replace("{P}", _ROLL_P_SQL).replace("{M}", str(_ROLL_M))


def q_length_quantiles_per_lang(sf_dir: str):
    """Exact per-group quantiles (p50/p90/p99 of document length per
    language) WITHOUT a global sort: lengths are bounded integers, so
    the exact distribution fits a (lang, n_chars)->count histogram.
    Partial histograms build inside map_batches (pa.Table.group_by per
    batch), only the tiny histogram rows shuffle (one bounded groupby —
    #langs x #distinct-lengths keys regardless of corpus row count),
    and each language's quantiles come off the cumulative histogram.
    Index convention pinned to DuckDB quantile_disc: sorted[max(0,
    ceil(q*n) - 1)] — fuzzed against DuckDB over 200 random arrays
    (tests/test_query_suite.py)."""
    import math

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        # select by name (pyarrow key-vs-aggregate column order is
        # version-dependent — ADVICE r4)
        return pa.table(
            {
                "lang": g.column("lang"),
                "n_chars": g.column("n_chars"),
                "cnt": g.column("n_chars_count"),
            }
        )

    hist = ds.map_batches(partial, batch_format="pyarrow")

    def per_lang(g: pd.DataFrame) -> pd.DataFrame:
        counts = g.groupby("n_chars")["cnt"].sum().sort_index()
        n = int(counts.sum())
        cum = counts.cumsum()

        def qdisc(q: float) -> int:
            k = max(1, math.ceil(q * n))
            return int(cum.index[int((cum >= k).to_numpy().argmax())])

        return pd.DataFrame(
            {
                "lang": [g.lang.iloc[0]],
                "n_docs": np.array([n], dtype=np.int64),
                "p50": np.array([qdisc(0.5)], dtype=np.int64),
                "p90": np.array([qdisc(0.9)], dtype=np.int64),
                "p99": np.array([qdisc(0.99)], dtype=np.int64),
            }
        )

    return hist.groupby("lang").map_groups(per_lang, batch_format="pandas")


SQL_LENGTH_QUANTILES = """
SELECT lang,
       count(*) AS n_docs,
       quantile_disc(n_chars, 0.5) AS p50,
       quantile_disc(n_chars, 0.9) AS p90,
       quantile_disc(n_chars, 0.99) AS p99
FROM documents GROUP BY lang
"""


def q_props_extract_stats(sf_dir: str):
    """Semi-structured field extraction at corpus scale: pull the
    integer ``k`` out of the JSON ``props`` string with ONE vectorized
    Arrow regex kernel (pc.extract_regex — no per-row json.loads), then
    mergeable partial aggregates per event_type inside the task and a
    bounded groupby merge (#event-types keys).  sum/count/min/max are
    exact integers; avg_k is one exact-int division per group so the
    float is bit-identical to the oracle's CAST(sum AS DOUBLE)/count."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch.column("props"), pattern=r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        t = pa.table({"event_type": batch.column("event_type"), "k": k})
        # rows without the field drop out BEFORE grouping (oracle:
        # WHERE k IS NOT NULL) — an event_type with zero valid rows is
        # absent from both sides instead of an all-null stats row
        t = t.filter(pc.is_valid(t.column("k")))
        g = t.group_by("event_type").aggregate(
            [("k", "sum"), ("k", "count"), ("k", "min"), ("k", "max")]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "s": g.column("k_sum"),
                "n": g.column("k_count"),
                "mn": g.column("k_min"),
                "mx": g.column("k_max"),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        n = int(g["n"].sum())
        s = int(g["s"].sum())
        return pd.DataFrame(
            {
                "event_type": [g.event_type.iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "sum_k": np.array([s], dtype=np.int64),
                "min_k": np.array([int(g["mn"].min())], dtype=np.int64),
                "max_k": np.array([int(g["mx"].max())], dtype=np.int64),
                "avg_k": np.array([s / n], dtype=np.float64),
            }
        )

    return part.groupby("event_type").map_groups(merge, batch_format="pandas")


SQL_PROPS_EXTRACT_STATS = """
WITH e AS (
  SELECT event_type,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
  FROM events
)
SELECT event_type,
       count(k) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k,
       min(k) AS min_k,
       max(k) AS max_k,
       CAST(sum(k) AS DOUBLE) / count(k) AS avg_k
FROM e WHERE k IS NOT NULL GROUP BY event_type
"""


# ===========================================================================
# 4. Dedup family
# ===========================================================================


def q_dedup_exact(sf_dir: str):
    from rapidocr_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds).select_columns(["doc_id"])


SQL_DEDUP_EXACT = "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text"


def q_ngram_jaccard_pairs(sf_dir: str):
    from rapidocr_ray.stages.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, k=3, threshold=0.5)


SQL_NGRAM_JACCARD_PAIRS = """
WITH words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
sh AS (SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS s
       FROM words, UNNEST(generate_series(1, greatest(len(w)-2, 1))) AS t(i)
       WHERE len(w) >= 3
       UNION
       SELECT doc_id, text AS s FROM documents WHERE len(string_split(text,' ')) < 3),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS c
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2)
SELECT doc_a, doc_b, CAST(c AS DOUBLE) / (sa.n + sb.n - c) AS jaccard
FROM inter
JOIN sizes sa ON sa.doc_id = inter.doc_a
JOIN sizes sb ON sb.doc_id = inter.doc_b
WHERE CAST(c AS DOUBLE) / (sa.n + sb.n - c) >= 0.5
"""


def q_dup_groups(sf_dir: str):
    """Connected components over exact-jaccard near-dup pairs: one
    (doc_id, group_id=min reachable doc) row per clustered doc."""
    from rapidocr_ray.stages.dedup import dup_groups, ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(ds, k=3, threshold=0.5)
    return dup_groups(pairs)


SQL_DUP_GROUPS = """
WITH RECURSIVE
words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
sh AS (SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS s
       FROM words, UNNEST(generate_series(1, greatest(len(w)-2, 1))) AS t(i)
       WHERE len(w) >= 3
       UNION
       SELECT doc_id, text AS s FROM documents WHERE len(string_split(text,' ')) < 3),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS c
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2),
pairs AS (SELECT doc_a, doc_b FROM inter
          JOIN sizes sa ON sa.doc_id = inter.doc_a
          JOIN sizes sb ON sb.doc_id = inter.doc_b
          WHERE CAST(c AS DOUBLE) / (sa.n + sb.n - c) >= 0.5),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs),
nodes AS (SELECT DISTINCT a AS doc FROM edges),
reach(doc, r) AS (
    SELECT doc, doc FROM nodes
    UNION
    SELECT reach.doc, edges.b FROM reach JOIN edges ON reach.r = edges.a)
SELECT doc AS doc_id, MIN(r) AS group_id FROM reach GROUP BY doc
"""


def q_minhash_lsh_pairs(sf_dir: str):
    """MinHash-LSH near-dup candidates, hash-checked end-to-end: the
    oracle re-derives the full pipeline in SQL — distinct 3-word-shingle
    md5 hashes (``md5_number_upper``), the 128 multiply-shift signature
    mins with exact uint64 wraparound (hi/lo-split HUGEINT modular
    arithmetic; the seed-7 (a, b) constants are embedded in the
    generated SQL, the image_features generated-oracle pattern), LSH
    candidacy as 4-value band-chunk equality (band hashes are injective
    on chunks up to murmur collisions), and est_jaccard as the exact
    signature agreement fraction."""
    from rapidocr_ray.stages.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.5)


def _build_minhash_lsh_sql(
    n_perm: int = 128, n_bands: int = 32, seed: int = 7, threshold: float = 0.5
) -> str:
    """Generated DuckDB oracle for q_minhash_lsh_pairs (constants from
    the same seeded MinHasher the engine uses).  uint64 wraparound is
    emulated in HUGEINT: a*x mod 2^64 == ((a*(x>>32)) mod 2^32)*2^32
    + a*(x & 0xFFFFFFFF), all intermediates < 2^97."""
    from rapidocr_ray.functions.hashing import MinHasher

    mh = MinHasher(n_perm=n_perm, seed=seed)
    r = n_perm // n_bands
    params = ",\n    ".join(
        f"({i}, {int(a)}::HUGEINT, {int(b)}::HUGEINT)"
        for i, (a, b) in enumerate(zip(mh.a, mh.b))
    )
    return f"""
WITH params(perm_idx, pa, pb) AS (VALUES
    {params}
),
words AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
),
shingle_lists AS (
  SELECT doc_id,
    CASE
      WHEN len(w) < 3 THEN
        CASE WHEN w = ['']::VARCHAR[] THEN []::VARCHAR[]
             ELSE [array_to_string(w, ' ')] END
      ELSE list_transform(range(1, len(w) - 1),
                          i -> array_to_string(w[i:i+2], ' '))
    END AS shingles
  FROM words
),
hs AS (
  SELECT DISTINCT doc_id, md5_number_upper(s)::HUGEINT AS x
  FROM (SELECT doc_id, unnest(shingles) AS s FROM shingle_lists)
),
sigv AS (
  SELECT doc_id, perm_idx,
    MIN( (((pa * (x >> 32)) % 4294967296) * 4294967296
          + pa * (x & 4294967295) + pb) % 18446744073709551616::HUGEINT ) AS v
  FROM hs CROSS JOIN params
  GROUP BY doc_id, perm_idx
),
sigs AS (
  SELECT doc_id, list(v ORDER BY perm_idx) AS sig FROM sigv GROUP BY doc_id
),
bands AS (
  SELECT doc_id, band,
         array_to_string(sig[band * {r} + 1 : band * {r} + {r}], ',') AS chunk
  FROM sigs, (SELECT unnest(range({n_bands})) AS band)
),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.chunk = y.chunk AND x.doc_id < y.doc_id
),
scored AS (
  SELECT c.doc_a, c.doc_b,
    list_sum(list_transform(range(1, {n_perm + 1}),
      i -> CASE WHEN sa.sig[i] = sb.sig[i] THEN 1 ELSE 0 END)) / {n_perm}.0
      AS est_jaccard
  FROM cand c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b
)
SELECT doc_a, doc_b, est_jaccard FROM scored
WHERE est_jaccard >= {threshold}
ORDER BY doc_a, doc_b
"""


SQL_MINHASH_LSH_PAIRS = _build_minhash_lsh_sql()


def q_simhash_signatures(sf_dir: str):
    """Full 64-bit SimHash per document, hash-checked: the engine's
    token hash is the first 8 md5 bytes little-endian, which DuckDB
    reproduces exactly as ``md5_number_upper(tok)`` — so the whole
    signature (per-token bit votes, sign threshold, 16-bit LSH prefix
    bucket) is re-derivable in SQL from documents.text."""
    from rapidocr_ray.stages.dedup import simhash_signatures

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_signatures(ds)


SQL_SIMHASH_SIGNATURES = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
th AS (
  SELECT doc_id, md5_number_upper(tok) AS h FROM toks WHERE tok <> ''
),
bits AS (
  SELECT doc_id, b.bit,
         SUM(CASE WHEN (h >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM th, (SELECT unnest(range(64)) AS bit) b
  GROUP BY doc_id, b.bit
),
sig AS (
  SELECT doc_id,
         SUM(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)::HUGEINT ELSE 0 END)::UBIGINT AS simhash
  FROM bits GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(s.simhash, 0)::UBIGINT AS simhash,
       (COALESCE(s.simhash, 0)::UBIGINT >> 48)::UBIGINT AS bucket
FROM documents d LEFT JOIN sig s USING (doc_id)
ORDER BY d.doc_id
"""


def _dup_pair_count_by_signature(sf_dir: str, sig_of_batch) -> pa.Table:
    """Shared shape for the LSH-recall invariant queries: the corpus is
    UNIONed with a shifted-id copy of itself (so every doc has at least
    one exact duplicate and the invariant has signal even on dup-free
    testdata), then per doc (signature, md5(text)) is computed;
    identical text MUST map to an identical signature, so the count of
    same-(signature, md5) pairs equals the count of same-text pairs —
    which a plain SQL COUNT can oracle.  A signature bug
    (nondeterminism across tasks/batches, band instability) breaks
    the equality and fails the driver's hash check."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def shift(batch: pa.Table) -> pa.Table:
        ids = pc.add(pc.cast(batch.column("doc_id"), pa.int64()), 1_000_000_000)
        return pa.table({"doc_id": ids, "text": batch.column("text")})

    ds = ds.union(ds.map_batches(shift, batch_format="pyarrow"))
    keyed = ds.map_batches(sig_of_batch, batch_format="pyarrow")

    def bucket_counts(group: pd.DataFrame) -> pa.Table:
        sizes = group.groupby(["sig_key", "md5"], sort=False).size().to_numpy()
        n = int((sizes * (sizes - 1) // 2).sum())
        return pa.table({"c": [n]}, schema=pa.schema([("c", pa.int64())]))

    counts = by_key(keyed, "sig_key", bucket_counts)
    total = counts.sum("c") or 0
    return pa.table({"n_pairs": pa.array([int(total)], type=pa.int64())})


SQL_DUP_PAIR_COUNT = """
WITH d2 AS (SELECT doc_id, text FROM documents
            UNION ALL SELECT doc_id + 1000000000, text FROM documents)
SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM d2 a JOIN d2 b ON a.doc_id < b.doc_id AND a.text = b.text
"""


def q_simhash_dup_recall(sf_dir: str):
    """Recall-1.0 invariant for SimHash on exact duplicates (shrinks the
    rows-only set: the signature path is now hash-checked)."""
    from rapidocr_ray.functions.hashing import SimHasher

    hasher = SimHasher()

    def sig(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        sigs = [int(hasher.signature(t)) for t in texts]
        return pa.table(
            {
                "doc_id": ids,
                "sig_key": [f"{s:016x}" for s in sigs],
                "md5": [fingerprint_md5(t) for t in texts],
            },
            schema=pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("sig_key", pa.string()),
                    ("md5", pa.string()),
                ]
            ),
        )

    return _dup_pair_count_by_signature(sf_dir, sig)


SQL_SIMHASH_DUP_RECALL = SQL_DUP_PAIR_COUNT


def q_minhash_dup_recall(sf_dir: str):
    """Recall-1.0 invariant for the full MinHash signature on exact
    duplicates (hash-checked coverage of the signature pipeline)."""
    from rapidocr_ray.functions.hashing import MinHasher, shingle_set_hashes

    hasher = MinHasher(n_perm=128, seed=7)

    def sig(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        keys = [
            hashlib.md5(
                hasher.signature(shingle_set_hashes(t, 3)).tobytes()
            ).hexdigest()
            for t in texts
        ]
        return pa.table(
            {
                "doc_id": ids,
                "sig_key": keys,
                "md5": [fingerprint_md5(t) for t in texts],
            },
            schema=pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("sig_key", pa.string()),
                    ("md5", pa.string()),
                ]
            ),
        )

    return _dup_pair_count_by_signature(sf_dir, sig)


SQL_MINHASH_DUP_RECALL = SQL_DUP_PAIR_COUNT


def q_ann_ivf_full_probe(sf_dir: str):
    """IVF with n_probe == n_centroids scans every bucket, so the
    IVF plumbing (quantizer, bucket routing, local scans, global
    reduce) must reproduce the exact brute-force top-k — hash-checked
    against the same SQL oracle as ann_topk."""
    from rapidocr_ray.stages.ann import ivf_topk

    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(ds, ids, mat, k=5, n_centroids=16, n_probe=16)


def q_embedding_cosine_pairs(sf_dir: str):
    from rapidocr_ray.stages.dedup import embedding_cosine_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_cosine_pairs(ds, threshold=0.45)


SQL_EMBEDDING_COSINE_PAIRS = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.45
"""


def q_semantic_dup_groups(sf_dir: str):
    """Semantic near-dup CLUSTERS: connected components over the exact
    embedding-cosine pair graph — the curation step that turns pairwise
    near-dup evidence into keep-one-per-cluster groups.  Pure
    composition of two hash-checked operators (embedding_cosine_pairs'
    cluster-sorted exact pair scan → dup_groups' tiered union-find /
    pointer-jumping), so the scale shapes are theirs: the embedding
    table never lands on the driver and component propagation is
    O(log diameter) bucketed rounds past the driver-local tier."""
    from rapidocr_ray.stages.dedup import dup_groups, embedding_cosine_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = embedding_cosine_pairs(ds, threshold=0.45)

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_a", "doc_b"])

    labeled = dup_groups(pairs.map_batches(rename, batch_format="pyarrow"))

    def rename_out(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["vec_id", "group_id"])

    return labeled.map_batches(rename_out, batch_format="pyarrow")


SQL_SEMANTIC_DUP_GROUPS = """
WITH RECURSIVE
pairs AS (SELECT a.vec_id AS a, b.vec_id AS b
          FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
          WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                       CAST(b.embedding AS DOUBLE[])) >= 0.45),
edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
nodes AS (SELECT DISTINCT a AS v FROM edges),
reach(v, r) AS (
    SELECT v, v FROM nodes
    UNION
    SELECT reach.v, edges.b FROM reach JOIN edges ON reach.r = edges.a)
SELECT v AS vec_id, MIN(r) AS group_id FROM reach GROUP BY v
"""


# ===========================================================================
# 5. Similarity search
# ===========================================================================


def _load_queries(sf_dir: str, n: int = 10):
    """First n vec_ids + their embeddings, without reading the vector
    payload of the whole table: scan the narrow vec_id column to find
    the n smallest ids, then a filtered (row-group-pruned) read of just
    those rows' embeddings."""
    path = f"{sf_dir}/embeddings.parquet"
    ids_only = pq.read_table(path, columns=["vec_id"]).column("vec_id")
    smallest = np.sort(np.asarray(ids_only))[:n]
    t = pq.read_table(
        path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", smallest.tolist())],
    )
    df = t.to_pandas().sort_values("vec_id")
    ids = df.vec_id.to_numpy().astype(np.int64)
    mat = np.stack(df.embedding.to_numpy()).astype(np.float64)
    return ids, mat


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-5 for the first 10 vec_ids (exact
    baseline; rank comparison is float-safe, see stages/ann.py)."""
    from rapidocr_ray.stages.ann import brute_force_topk

    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return brute_force_topk(ds, ids, mat, k=5)


SQL_ANN_TOPK = """
WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS e
           FROM embeddings ORDER BY vec_id LIMIT 10),
s AS (SELECT q.query_id, c.vec_id AS neighbor_id,
             list_cosine_similarity(q.e, CAST(c.embedding AS DOUBLE[])) AS sim
      FROM q JOIN embeddings c ON c.vec_id != q.query_id),
r AS (SELECT query_id, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank
      FROM s)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 5
"""


def q_ann_ivf_topk(sf_dir: str):
    """IVF-bucketed ANN (rows-only: approximate by construction)."""
    from rapidocr_ray.stages.ann import ivf_topk

    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(ds, ids, mat, k=5)


def q_ann_ivf_seeded_topk(sf_dir: str):
    """IVF with a deterministic SQL-expressible quantizer: centroids
    are the embeddings of the 16 smallest vec_ids (single assignment
    pass, no k-means), queries probe their 4 nearest buckets.  Unlike
    ann_ivf_topk (rows-only: RNG-seeded k-means), every step here is
    deterministic, so the whole IVF plumbing — quantize, bucket-route,
    probe, local scan, global reduce — is hash-checked end-to-end
    against SQL_ANN_IVF_SEEDED."""
    from rapidocr_ray.stages.ann import seeded_ivf_topk

    # queries are by construction the first 10 of the 16 seeds: one
    # pruned read serves both
    seed_ids, seed_mat = _load_queries(sf_dir, n=16)
    ids, mat = seed_ids[:10], seed_mat[:10]
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return seeded_ivf_topk(ds, ids, mat, seed_mat, k=5, n_probe=4)


SQL_ANN_IVF_SEEDED = """
WITH seeds AS (
  SELECT CAST(embedding AS DOUBLE[]) AS e,
         ROW_NUMBER() OVER (ORDER BY vec_id) AS cidx
  FROM (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 16)),
q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS e
      FROM embeddings ORDER BY vec_id LIMIT 10),
assign AS (
  SELECT vec_id, cidx AS bucket FROM (
    SELECT c.vec_id, s.cidx,
           ROW_NUMBER() OVER (
             PARTITION BY c.vec_id
             ORDER BY list_cosine_similarity(s.e, CAST(c.embedding AS DOUBLE[])) DESC,
                      s.cidx) AS rn
    FROM embeddings c CROSS JOIN seeds s)
  WHERE rn = 1),
qprobe AS (
  SELECT query_id, cidx FROM (
    SELECT q.query_id, s.cidx,
           ROW_NUMBER() OVER (
             PARTITION BY q.query_id
             ORDER BY list_cosine_similarity(q.e, s.e) DESC, s.cidx) AS rn
    FROM q CROSS JOIN seeds s)
  WHERE rn <= 4),
cand AS (
  SELECT q.query_id, c.vec_id AS neighbor_id,
         list_cosine_similarity(q.e, CAST(c.embedding AS DOUBLE[])) AS sim
  FROM q
  JOIN qprobe p ON p.query_id = q.query_id
  JOIN assign a ON a.bucket = p.cidx
  JOIN embeddings c ON c.vec_id = a.vec_id AND c.vec_id != q.query_id),
r AS (SELECT query_id, neighbor_id,
             ROW_NUMBER() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, neighbor_id) AS rank
      FROM cand)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 5
"""


def q_ann_ivf_invariant(sf_dir: str):
    """Hash-checked invariant pinning the approximate IVF path: for
    every query, the IVF list must return exactly k neighbors, each
    returned pair's EXACT cosine (recomputed independently against the
    streamed corpus, not read from the IVF output) must order the list
    consistently with its ranks (ties broken by neighbor_id asc).  The
    oracle is the constant truth table — any plumbing break (wrong
    sims, bad ordering, short lists) flips a row and fails the hash."""
    import ray

    from rapidocr_ray.stages.ann import _normalize, _stack_embeddings, ivf_topk

    ids, mat = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = ivf_topk(ds, ids, mat, k=5).to_pandas()  # n_queries*k rows (tiny)
    qn = _normalize(np.asarray(mat, dtype=np.float64))
    qidx = {int(q): i for i, q in enumerate(ids)}
    pref = ray.put((pairs, qn, qidx))

    sim_schema = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()), ("sim", pa.float64()),
         ("neighbor_id", pa.int64())]
    )

    def attach_exact_sim(batch: pa.Table) -> pa.Table:
        p, qn_, qidx_ = broadcast_get(pref)
        c_ids, c_mat = _stack_embeddings(batch)
        cn = _normalize(c_mat)
        sel = p[p.neighbor_id.isin(c_ids)]
        if sel.empty:
            return sim_schema.empty_table()
        pos = {int(v): i for i, v in enumerate(c_ids)}
        sims = [
            float(qn_[qidx_[int(q)]] @ cn[pos[int(n)]])
            for q, n in zip(sel.query_id, sel.neighbor_id)
        ]
        return pa.table(
            {
                "query_id": sel.query_id.to_numpy().astype(np.int64),
                "rank": sel["rank"].to_numpy().astype(np.int64),
                "sim": np.asarray(sims, dtype=np.float64),
                "neighbor_id": sel.neighbor_id.to_numpy().astype(np.int64),
            },
            schema=sim_schema,
        )

    sims_ds = ds.map_batches(attach_exact_sim, batch_format="pyarrow")

    def check(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("rank")
        s = g.sim.to_numpy()
        n = g.neighbor_id.to_numpy()
        d = np.diff(s)
        # non-increasing sims (1e-9 float slack for gemm-vs-dot
        # accumulation order); equal sims must be id-ascending
        order_ok = bool(
            np.all(d <= 1e-9) and np.all((np.abs(d) > 1e-9) | (np.diff(n) > 0))
        )
        return pd.DataFrame(
            {
                "query_id": [int(g.query_id.iloc[0])],
                "k_returned": [int(len(g))],
                "ordering_ok": [order_ok],
            }
        )

    return sims_ds.groupby("query_id").map_groups(check, batch_format="pandas")


SQL_ANN_IVF_INVARIANT = """
SELECT CAST(vec_id AS BIGINT) AS query_id,
       CAST(5 AS BIGINT) AS k_returned,
       TRUE AS ordering_ok
FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 10)
"""


# ===========================================================================
# 6. Multimodal plumbing
# ===========================================================================


def q_image_metadata(sf_dir: str):
    """Image decode task map over the pages payload column: RBMP rows
    decode for real, html/empty rows surface typed decode errors."""
    from rapidocr_ray.sources.pages import pages_ds_from_documents
    from rapidocr_ray.stages.multimodal import image_metadata_pipeline

    ds = pages_ds_from_documents(sf_dir).select_columns(["url", "html"])
    out = image_metadata_pipeline(ds)
    return out.select_columns(["url", "height", "width", "decode_ok"])


SQL_IMAGE_METADATA = """
SELECT 'https://docs.example/' || CAST(doc_id AS VARCHAR) AS url,
       CASE WHEN doc_id % 20 BETWEEN 16 AND 18 THEN 28 END AS height,
       CASE WHEN doc_id % 20 BETWEEN 16 AND 18
            THEN greatest(9*length(text) - 1, 64) + 16 END AS width,
       doc_id % 20 BETWEEN 16 AND 18 AS decode_ok
FROM documents
"""


def q_webp_metadata(sf_dir: str):
    """WebP-lossless (VP8L) path plumbing with a hash-checked oracle:
    deterministic gradient images (pixel(y,x) = (7x + 13y + doc_id) %
    256, size keyed off doc_id) are encoded to real VP8L containers per
    document, decoded back by the ImageDecodeStage task map (through
    ``functions.webp``), and the DuckDB oracle re-derives height/width/
    ink-count analytically from doc_id — all integer arithmetic, so a
    single wrong pixel anywhere in the codec flips the hash."""
    from rapidocr_ray.stages.multimodal import image_metadata_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    from rapidocr_ray.functions.webp import encode_webp

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        payloads = []
        for d in ids:
            d = int(d)
            h = 8 + (d % 3) * 4
            w = 12 + (d % 4) * 6
            ys = np.arange(h, dtype=np.int64)[:, None]
            xs = np.arange(w, dtype=np.int64)[None, :]
            img = ((xs * 7 + ys * 13 + d) % 256).astype(np.uint8)
            payloads.append(encode_webp(img))
        return pa.table(
            {"doc_id": ids, "image": pa.array(payloads, type=pa.binary())}
        )

    imgs = ds.map_batches(synth, batch_format="pyarrow")
    out = image_metadata_pipeline(imgs, payload_col="image")
    return out.select_columns(["doc_id", "height", "width", "n_ink", "decode_ok"])


SQL_WEBP_METADATA = """
SELECT doc_id,
       CAST(8 + (doc_id % 3) * 4 AS INTEGER) AS height,
       CAST(12 + (doc_id % 4) * 6 AS INTEGER) AS width,
       CAST(list_sum(flatten(list_transform(range(0, 8 + (doc_id % 3) * 4), y ->
            list_transform(range(0, 12 + (doc_id % 4) * 6), x ->
                CASE WHEN (x * 7 + y * 13 + doc_id) % 256 > 127
                     THEN 1 ELSE 0 END)))) AS BIGINT) AS n_ink,
       TRUE AS decode_ok
FROM documents
"""


def q_video_frame_stats(sf_dir: str):
    """Video-path plumbing with a hash-checked oracle: deterministic
    RBMP frame streams (1 + doc_id%5 constant-value 16x16 frames)
    synthesized per document, decoded + every-2nd-frame sampled by the
    FrameSampleStage task map; the DuckDB oracle re-derives the
    sampled-frame ink analytically from doc_id (the SQL_IMAGE_METADATA
    pattern — all arithmetic integer, bit-exact)."""
    from rapidocr_ray.stages.multimodal import frame_stats_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    # glyphs must be bound OUTSIDE the worker closure: the closure ships
    # by value and a live import inside it fails off-repo-CWD workers
    from rapidocr_ray import glyphs

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        payloads = []
        for d in ids:
            d = int(d)
            n = 1 + d % 5
            payloads.append(
                b"".join(
                    glyphs.encode_rbmp(
                        np.full((16, 16), (d * 31 + f * 17) % 256, dtype=np.uint8)
                    )
                    for f in range(n)
                )
            )
        return pa.table(
            {"doc_id": ids, "video": pa.array(payloads, type=pa.binary())}
        )

    vids = ds.map_batches(synth, batch_format="pyarrow")
    out = frame_stats_pipeline(vids, payload_col="video", every_k=2)
    return out.select_columns(["doc_id", "n_frames", "n_sampled", "ink_sampled"])


SQL_VIDEO_FRAME_STATS = """
SELECT doc_id,
       (1 + doc_id % 5) AS n_frames,
       CAST(ceil((1 + doc_id % 5) / 2.0) AS BIGINT) AS n_sampled,
       CAST(list_sum(list_transform(range(0, 1 + doc_id % 5),
            f -> CASE WHEN f % 2 = 0
                      THEN 256 * ((doc_id * 31 + f * 17) % 256)
                      ELSE 0 END)) AS BIGINT) AS ink_sampled
FROM documents
"""


def q_avi_frame_stats(sf_dir: str):
    """REAL-container video path with a hash-checked oracle: per-doc
    AVI/MJPG files (1 + doc_id%4 frames of 16x24 8x8-block-constant
    tiles) synthesized deterministically, demuxed by the header-only
    AVI chunk walk and every-2nd-frame decoded through the from-scratch
    JPEG decoder inside the FrameSampleStage task map.  quality=100
    (all-ones quant table) makes block-constant frames round-trip
    bit-exactly, so the DuckDB oracle re-derives the sampled ink purely
    from doc_id — integer arithmetic, no image library on either side."""
    from rapidocr_ray.functions import avi as avi_mod
    from rapidocr_ray.stages.multimodal import frame_stats_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        payloads = []
        tile = np.ones((8, 8), dtype=np.uint8)
        for d in ids:
            d = int(d)
            frames = []
            for f in range(1 + d % 4):
                vals = np.array(
                    [(d * 31 + f * 17 + t * 7) % 256 for t in range(6)],
                    dtype=np.uint8,
                ).reshape(2, 3)
                frames.append(np.kron(vals, tile))
            payloads.append(avi_mod.encode_avi_mjpeg(frames, quality=100))
        return pa.table(
            {"doc_id": ids, "video": pa.array(payloads, type=pa.binary())}
        )

    vids = ds.map_batches(synth, batch_format="pyarrow")
    out = frame_stats_pipeline(vids, payload_col="video", every_k=2)
    return out.select_columns(["doc_id", "n_frames", "n_sampled", "ink_sampled"])


SQL_AVI_FRAME_STATS = """
SELECT doc_id,
       (1 + doc_id % 4) AS n_frames,
       CAST(ceil((1 + doc_id % 4) / 2.0) AS BIGINT) AS n_sampled,
       CAST(list_sum(list_transform(range(0, 1 + doc_id % 4),
            f -> CASE WHEN f % 2 = 0
                      THEN 64 * list_sum(list_transform(range(0, 6),
                           t -> (doc_id * 31 + f * 17 + t * 7) % 256))
                      ELSE 0 END)) AS BIGINT) AS ink_sampled
FROM documents
"""


def q_gif_frame_stats(sf_dir: str):
    """Second real-container video query: per-doc animated GIFs
    (1 + doc_id%3 constant 16x16 frames) sampled every-2nd through the
    FrameSampleStage; GIF is LOSSLESS so the DuckDB oracle re-derives
    the sampled ink exactly from doc_id (skipped frames are walked by
    sub-block size hops, never LZW-decoded)."""
    from rapidocr_ray.functions import codecs as codecs_mod
    from rapidocr_ray.stages.multimodal import frame_stats_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        payloads = []
        for d in ids:
            d = int(d)
            frames = [
                np.full((16, 16), (d * 13 + f * 29) % 256, dtype=np.uint8)
                for f in range(1 + d % 3)
            ]
            payloads.append(codecs_mod.encode_gif_animation(frames))
        return pa.table(
            {"doc_id": ids, "video": pa.array(payloads, type=pa.binary())}
        )

    vids = ds.map_batches(synth, batch_format="pyarrow")
    out = frame_stats_pipeline(vids, payload_col="video", every_k=2)
    return out.select_columns(["doc_id", "n_frames", "n_sampled", "ink_sampled"])


SQL_GIF_FRAME_STATS = """
SELECT doc_id,
       (1 + doc_id % 3) AS n_frames,
       CAST(ceil((1 + doc_id % 3) / 2.0) AS BIGINT) AS n_sampled,
       CAST(list_sum(list_transform(range(0, 1 + doc_id % 3),
            f -> CASE WHEN f % 2 = 0
                      THEN 256 * ((doc_id * 13 + f * 29) % 256)
                      ELSE 0 END)) AS BIGINT) AS ink_sampled
FROM documents
"""


def q_audio_features(sf_dir: str):
    """Audio-path plumbing with a hash-checked oracle: deterministic
    16-bit PCM square waves (amplitude 2^(9 + doc_id%4) counts, length
    16000 + 8000*(doc_id%4) samples at 16 kHz) synthesized per
    document, decoded + feature-extracted by the AudioFeatureStage
    task map.  Power-of-two amplitudes make the decoded samples, the
    float32 mean-of-squares and its sqrt all EXACT, so rms_scaled =
    1e6 * 2^(j-15) = 15625 * 2^(doc_id%4) with no rounding ties — the
    DuckDB oracle is pure integer arithmetic on doc_id."""
    from rapidocr_ray.stages.multimodal import audio_feature_pipeline

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    from rapidocr_ray.functions.codecs import encode_wav

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        payloads = []
        for d in ids:
            d = int(d)
            n = 16000 + (d % 4) * 8000
            amp = float(1 << (9 + d % 4)) / 32767.0
            x = np.empty(n, dtype=np.float64)
            x[0::2] = amp
            x[1::2] = -amp
            payloads.append(encode_wav(x, 16000))
        return pa.table(
            {"doc_id": ids, "audio": pa.array(payloads, type=pa.binary())}
        )

    wavs = ds.map_batches(synth, batch_format="pyarrow")
    out = audio_feature_pipeline(wavs, payload_col="audio")
    return out.select_columns(
        ["doc_id", "sample_rate", "n_channels", "duration_us", "rms_scaled"]
    )


SQL_AUDIO_FEATURES = """
SELECT doc_id,
       CAST(16000 AS INTEGER) AS sample_rate,
       CAST(1 AS INTEGER) AS n_channels,
       CAST(1000000 + (doc_id % 4) * 500000 AS BIGINT) AS duration_us,
       CAST(15625 * (1 << (doc_id % 4)) AS BIGINT) AS rms_scaled
FROM documents
"""


def q_image_features(sf_dir: str):
    """Feature-extraction task map over decoded pixels, emitted as
    EXACT integer-scaled profile bins (long format) so the DuckDB
    oracle can re-derive them analytically from documents.text via the
    embedded glyph-constant table (the SQL_IMAGE_METADATA pattern)."""
    from rapidocr_ray.sources.pages import pages_ds_from_documents
    from rapidocr_ray.stages.multimodal import image_feature_bins_pipeline

    ds = pages_ds_from_documents(sf_dir).select_columns(["url", "html"])
    return image_feature_bins_pipeline(ds)


def _image_features_sql() -> str:
    """Build the image_features oracle: per-char glyph ink constants
    (the same deterministic alphabet the renderer uses) embedded as a
    VALUES table; the page model matches pages_from_documents — single
    line at margin 8, height 28, width max(9*len-1, 64) + 16.  Row ink
    lands in bins 4/5/6 (glyph rows 0-5 at image rows 8-13 under
    array_split(28, 16)) plus bin 9 (row-11 anchors at image row 19);
    column ink is mapped through the array_split inverse-bin formula.
    All arithmetic integer — bit-exact vs ImageFeatureBinsStage."""
    from rapidocr_ray.glyphs import CHARSET, GLYPHS

    rows = []
    for ch in CHARSET:
        g = GLYPHS[ch].astype(int)
        col_ink = g.sum(axis=0)
        lit = ch.replace("'", "''")
        rows.append(
            "('%s',%d,%d,%d,%d,%d,%s)"
            % (
                lit,
                g[0:2].sum(),
                g[2:4].sum(),
                g[4:6].sum(),
                int(g[11].sum()),
                int(g.sum()),
                ",".join(str(int(x)) for x in col_ink),
            )
        )
    values = ",\n  ".join(rows)
    return f"""
WITH gtab(ch, s01, s23, s45, anchor, tot, c0,c1,c2,c3,c4,c5,c6,c7) AS (VALUES
  {values}),
docs AS (
  SELECT doc_id,
         'https://docs.example/' || CAST(doc_id AS VARCHAR) AS url,
         text,
         GREATEST(9*LENGTH(text)-1, 64) + 16 AS w
  FROM documents
  WHERE doc_id % 20 BETWEEN 16 AND 18
),
chars AS (
  SELECT doc_id, w, text, UNNEST(RANGE(LENGTH(text))) AS pos FROM docs
),
cg AS (
  SELECT c.doc_id, c.w, c.pos, g.*
  FROM (SELECT doc_id, w, pos, SUBSTR(text, CAST(pos AS INT) + 1, 1) AS ch
        FROM chars) c
  JOIN gtab g USING (ch)
),
tot AS (
  SELECT d.doc_id, GREATEST(COALESCE(SUM(g.tot), 0), 1) AS total
  FROM docs d LEFT JOIN cg g USING (doc_id) GROUP BY d.doc_id
),
rowink AS (
  SELECT doc_id, b.bin,
         SUM(CASE b.bin WHEN 4 THEN s01 WHEN 5 THEN s23 WHEN 6 THEN s45
                        WHEN 9 THEN anchor ELSE 0 END) AS ink
  FROM cg CROSS JOIN (SELECT UNNEST(RANGE(16)) AS bin) b
  GROUP BY doc_id, b.bin
),
colcells AS (
  SELECT doc_id, w, 8 + 9*pos + cc.c AS x,
         CASE cc.c WHEN 0 THEN c0 WHEN 1 THEN c1 WHEN 2 THEN c2 WHEN 3 THEN c3
                   WHEN 4 THEN c4 WHEN 5 THEN c5 WHEN 6 THEN c6 ELSE c7 END AS ink
  FROM cg CROSS JOIN (SELECT UNNEST(RANGE(8)) AS c) cc
),
colink AS (
  SELECT doc_id,
         CASE WHEN x < (w % 16) * (w // 16 + 1)
              THEN x // (w // 16 + 1)
              ELSE (w % 16) + (x - (w % 16) * (w // 16 + 1)) // (w // 16)
         END AS bin,
         SUM(ink) AS ink
  FROM colcells GROUP BY doc_id, bin
),
grid AS (
  SELECT d.doc_id, d.url, k.kind, b.bin
  FROM docs d
  CROSS JOIN (SELECT UNNEST(['row','col']) AS kind) k
  CROSS JOIN (SELECT UNNEST(RANGE(16)) AS bin) b
)
SELECT g.url, g.kind, CAST(g.bin AS BIGINT) AS bin,
       CAST((2000000 * COALESCE(CASE WHEN g.kind = 'row' THEN r.ink ELSE c.ink END, 0)
             + t.total) // (2 * t.total) AS BIGINT) AS ink_scaled
FROM grid g
JOIN tot t USING (doc_id)
LEFT JOIN rowink r ON g.kind = 'row' AND r.doc_id = g.doc_id AND r.bin = g.bin
LEFT JOIN colink c ON g.kind = 'col' AND c.doc_id = g.doc_id AND c.bin = g.bin
"""


SQL_IMAGE_FEATURES = _image_features_sql()


# ===========================================================================
# 8. Late-round-5 corpus-curation widening: repetition quality,
#    stratified sampling, normalized dedup, funnels, salient terms
# ===========================================================================


def q_token_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality signals, per document: token
    count, distinct-token count, and the top single-token count (the
    "most common word fraction" numerator).  Embarrassingly parallel —
    the token explosion never leaves the task (per-batch C-level
    groupby), NO shuffle at any scale."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        d = np.repeat(np.asarray(batch.column("doc_id")), lens)
        df = pd.DataFrame({"d": d, "tok": pc.list_flatten(toks).to_pandas()})
        per = df.groupby(["d", "tok"], sort=False).size().rename("n").reset_index()
        agg = per.groupby("d", sort=False).agg(
            n_tokens=("n", "sum"),
            n_distinct_toks=("n", "size"),
            top_tok_n=("n", "max"),
        )
        return pa.table(
            {
                "doc_id": agg.index.to_numpy().astype(np.int64),
                "n_tokens": agg.n_tokens.to_numpy().astype(np.int64),
                "n_distinct_toks": agg.n_distinct_toks.to_numpy().astype(np.int64),
                "top_tok_n": agg.top_tok_n.to_numpy().astype(np.int64),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


SQL_TOKEN_REPETITION_STATS = """
WITH l AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
c AS (SELECT doc_id, tok, count(*) AS n FROM l GROUP BY doc_id, tok)
SELECT doc_id,
       CAST(sum(n) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS n_distinct_toks,
       CAST(max(n) AS BIGINT) AS top_tok_n
FROM c GROUP BY doc_id
"""


def q_stratified_sample(sf_dir: str, k: int = 64):
    """Deterministic per-language rebalancing sample: the EXACT k
    documents with the smallest multiplicative hash of doc_id per lang
    (the reproducible analog of 'cap each language at k docs').

    Distributed top-k-by-hash: each read task prunes to its local
    per-lang k smallest (the global answer is a subset of every task's
    local answer), so the shuffle carries at most n_tasks x n_langs x k
    rows — never the corpus.  The final per-lang reduce sees only those
    candidates; languages are a bounded categorical key.  (The SQL
    oracle's un-wrapped BIGINT product matches numpy's uint64 arithmetic
    for doc_id < 2^31, which holds for every test SF.)"""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def local_topk(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        hv = ((ids * np.uint64(2654435761)) % np.uint64(2**32)).astype(np.int64)
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_pandas(),
                "doc_id": np.asarray(batch.column("doc_id")),
                "hv": hv,
            }
        )
        df = df.sort_values(["hv", "doc_id"], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("lang", sort=False).head(k), preserve_index=False
        )

    pruned = ds.map_batches(local_topk, batch_format="pyarrow")

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["hv", "doc_id"], kind="mergesort").head(k)
        return g[["lang", "doc_id"]]

    return pruned.groupby("lang").map_groups(final, batch_format="pandas")


SQL_STRATIFIED_SAMPLE = """
WITH h AS (SELECT lang, doc_id, (doc_id * 2654435761) % 4294967296 AS hv FROM documents),
r AS (SELECT lang, doc_id,
             ROW_NUMBER() OVER (PARTITION BY lang ORDER BY hv, doc_id) AS rn
      FROM h)
SELECT lang, doc_id FROM r WHERE rn <= 64
"""


def q_norm_dedup_groups(sf_dir: str):
    """Exact dedup on a NORMALIZED key (lowercase, non-alphanumeric
    runs collapsed to one space, trimmed) — catches the
    case/punctuation/whitespace near-identical copies raw exact dedup
    misses.  One row per normalized group: keeper (min doc_id) and
    group size.  Same shape as exact dedup: normalize vectorized in
    the scan task, ONE ``tiered.by_key`` shuffle on the key (a key
    lives in one bucket, so per-bucket groups are exact).  Both sides
    use RE2 ('[^a-z0-9]+') so the normalization is kernel-identical."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        key = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.utf8_lower(batch.column("text")), "[^a-z0-9]+", " "
            )
        )
        return pa.table({"doc_id": batch.column("doc_id"), "k": key})

    normed = ds.map_batches(norm, batch_format="pyarrow")

    def groups(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("k", sort=False, as_index=False).agg(
            keeper=("doc_id", "min"), n_docs=("doc_id", "size")
        )
        return pd.DataFrame(
            {
                "keeper": agg.keeper.to_numpy().astype(np.int64),
                "n_docs": agg.n_docs.to_numpy().astype(np.int64),
            }
        )

    return by_key(normed, "k", groups)


SQL_NORM_DEDUP_GROUPS = """
WITH n AS (SELECT doc_id,
                  trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS k
           FROM documents)
SELECT CAST(min(doc_id) AS BIGINT) AS keeper,
       CAST(count(*) AS BIGINT) AS n_docs
FROM n GROUP BY k
"""


def q_event_funnel(sf_dir: str):
    """Conversion funnel: users whose first 'view' is strictly
    followed by a 'purchase', with the earliest qualifying purchase
    timestamp.  The scan keeps only the two funnel steps (vectorized
    is_in — everything else never leaves the read task), then ONE
    ``tiered.by_key`` shuffle by user and a per-bucket vectorized min/merge/min;
    per-user history fits a group (the running_totals partitioning
    assumption)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def pre(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.is_in(
                batch.column("event_type"),
                value_set=pa.array(["view", "purchase"]),
            )
        )

    ds = ds.map_batches(pre, batch_format="pyarrow")

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        ta = (
            g[g.event_type == "view"]
            .groupby("user_id", as_index=False)["ts"]
            .min()
            .rename(columns={"ts": "ta"})
        )
        b = g[g.event_type == "purchase"][["user_id", "ts"]]
        m = b.merge(ta, on="user_id")
        m = m[m.ts > m.ta]
        return (
            m.groupby("user_id", as_index=False)["ts"]
            .min()
            .rename(columns={"ts": "conv_ts"})
        )

    return by_key(ds, "user_id", funnel)


SQL_EVENT_FUNNEL = """
WITH a AS (SELECT user_id, min(ts) AS ta FROM events
           WHERE event_type = 'view' GROUP BY user_id)
SELECT b.user_id, min(b.ts) AS conv_ts
FROM events b JOIN a USING (user_id)
WHERE b.event_type = 'purchase' AND b.ts > a.ta
GROUP BY b.user_id
"""


def q_doc_salient_term(sf_dir: str):
    """Per-document salient term: the most frequent token, tie-broken
    by SMALLEST global document frequency (rarest wins) then token — a
    deterministic integer-only tf-idf proxy (no float log, so the
    oracle compares exactly).

    Fully distributed, no broadcast: (1) per-batch per-doc tf counts
    keep only each doc's max-tf ties (candidates — a handful per doc);
    (2) per-batch DISTINCT-token df partials; (3) ONE ``tiered.by_key``
    shuffle on the token merges df and attaches it to candidates (a
    token lives in one bucket, so the df a candidate sees is exact and
    global); (4) a second small shuffle keyed by doc picks the winner —
    it carries only the tie rows, never the token explosion."""
    CAND_ROW, DF_ROW = 0, 1
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(batch.column("text"), " ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        d = np.repeat(np.asarray(batch.column("doc_id")), lens)
        df = pd.DataFrame({"d": d, "tok": pc.list_flatten(toks).to_pandas()})
        per = df.groupby(["d", "tok"], sort=False).size().rename("tf").reset_index()
        return per

    def cand_and_df(batch: pa.Table) -> pa.Table:
        # ONE explode per batch feeds BOTH outputs (candidates and df
        # partials) — the token explosion is the expensive part, and a
        # two-scan union would pay it twice (review finding)
        per = explode(batch)
        mx = per.groupby("d", sort=False)["tf"].transform("max")
        cand = per[per.tf == mx]
        cand_tab = pa.table(
            {
                "kind": np.full(len(cand), CAND_ROW, dtype=np.int8),
                "token": pa.array(cand.tok, type=pa.string()),
                "doc_id": cand.d.to_numpy().astype(np.int64),
                "tf": cand.tf.to_numpy().astype(np.int64),
                "df_part": np.zeros(len(cand), dtype=np.int64),
            }
        )
        part = per.groupby("tok", sort=False).size().rename("df").reset_index()
        df_tab = pa.table(
            {
                "kind": np.full(len(part), DF_ROW, dtype=np.int8),
                "token": pa.array(part.tok, type=pa.string()),
                "doc_id": np.zeros(len(part), dtype=np.int64),
                "tf": np.zeros(len(part), dtype=np.int64),
                "df_part": part["df"].to_numpy().astype(np.int64),
            }
        )
        return pa.concat_tables([cand_tab, df_tab])

    both = ds.map_batches(cand_and_df, batch_format="pyarrow")

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        df_tab = g[g.kind == DF_ROW].groupby("token", sort=False)["df_part"].sum()
        cand = g[g.kind == CAND_ROW][["doc_id", "token", "tf"]]
        return cand.merge(df_tab.rename("df_n"), left_on="token", right_index=True)

    attached = by_key(both, "token", attach_df)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["doc_id", "tf", "df_n", "token"],
            ascending=[True, False, True, True],
            kind="mergesort",
        ).drop_duplicates("doc_id", keep="first")
        return pd.DataFrame(
            {
                "doc_id": g.doc_id.to_numpy().astype(np.int64),
                "token": g.token.to_numpy(),
                "tf": g.tf.to_numpy().astype(np.int64),
                "df_n": g.df_n.to_numpy().astype(np.int64),
            }
        )

    return by_key(attached, "doc_id", pick)


SQL_DOC_SALIENT_TERM = """
WITH l AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
c AS (SELECT doc_id, tok, count(*) AS tf FROM l GROUP BY doc_id, tok),
df AS (SELECT tok, count(DISTINCT doc_id) AS df_n FROM l GROUP BY tok),
r AS (SELECT c.doc_id, c.tok, c.tf, df.df_n,
             ROW_NUMBER() OVER (PARTITION BY c.doc_id
                                ORDER BY c.tf DESC, df.df_n ASC, c.tok ASC) AS rn
      FROM c JOIN df USING (tok))
SELECT doc_id, tok AS token, CAST(tf AS BIGINT) AS tf, CAST(df_n AS BIGINT) AS df_n
FROM r WHERE rn = 1
"""


def q_sliding_window(sf_dir: str):
    """Hopping-window aggregate (2-hour windows sliding by 1 hour):
    the streaming shape tumbling windows can't express — each event
    belongs to exactly two windows, so the scan task EXPLODES the
    assignment map-side (x2, still vectorized) and pre-aggregates
    before the one ``tiered.by_key`` shuffle on the window.  Window keys grow
    with time, never with event count."""
    ds = _read(sf_dir, "events", columns=["ts", "value"])
    hour_us = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ws = np.asarray(
            pc.cast(pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64())
        )
        cents = _cents(np.asarray(batch.column("value")))
        t = pa.table(
            {
                "w": np.concatenate([ws, ws - hour_us]),
                "cents": np.concatenate([cents, cents]),
                "n": np.ones(2 * len(ws), dtype=np.int64),
            }
        )
        agg = t.group_by("w").aggregate([("cents", "sum"), ("n", "sum")])
        return pa.table(
            {
                "window_start": pc.cast(agg.column("w"), pa.timestamp("us")),
                "n_events": agg.column("n_sum"),
                "value_cents": agg.column("cents_sum"),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("window_start", as_index=False)[
            ["n_events", "value_cents"]
        ].sum()
        out["n_events"] = out.n_events.astype(np.int64)
        out["value_cents"] = out.value_cents.astype(np.int64)
        return out

    return by_key(part, "window_start", merge)


SQL_SLIDING_WINDOW = """
WITH x AS (
  SELECT date_trunc('hour', ts) AS window_start,
         CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents FROM events
  UNION ALL
  SELECT date_trunc('hour', ts) - INTERVAL 1 HOUR,
         CAST(FLOOR(value*100 + 0.5) AS BIGINT) FROM events
)
SELECT window_start, COUNT(*) AS n_events, CAST(SUM(cents) AS BIGINT) AS value_cents
FROM x GROUP BY window_start
"""


def q_events_rollup(sf_dir: str):
    """Hierarchical (ROLLUP) aggregate: (event_type, hour-of-day),
    per-event_type subtotals, and the grand total in one result —
    sentinel-encoded ('ALL' / -1) instead of SQL NULLs so the driver's
    hash compare is null-free.  The finest key space is bounded
    (#event_types x 24), so in-task partials collapse each batch to
    ≤120 rows and ONE single-group merge derives all three levels
    vectorized."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour": pc.cast(pc.hour(batch.column("ts")), pa.int64()),
                "cents": pa.array(_cents(np.asarray(batch.column("value")))),
                "n": np.ones(batch.num_rows, dtype=np.int64),
            }
        )
        agg = t.group_by(["event_type", "hour"]).aggregate(
            [("cents", "sum"), ("n", "sum")]
        )
        return pa.table(
            {
                "event_type": agg.column("event_type"),
                "hour": agg.column("hour"),
                "cents": agg.column("cents_sum"),
                "n": agg.column("n_sum"),
                "group": np.zeros(agg.num_rows, dtype=np.int64),
            }
        )

    import ray.data

    part = ds.map_batches(partial, batch_format="pyarrow")
    # seed row: GROUP BY ROLLUP over an EMPTY table still emits the
    # empty-grouping-set (grand total) row — the seed guarantees the
    # merge group exists and contributes 0 to every sum (the oracle
    # COALESCEs the empty-total NULL to 0 for the same reason)
    seed = ray.data.from_items(
        [{"event_type": "\x00seed", "hour": -1, "cents": 0, "n": 0, "group": 0}]
    )
    part = part.union(seed)

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        real = g[g.event_type != "\x00seed"]
        fine = real.groupby(["event_type", "hour"], as_index=False)[["n", "cents"]].sum()
        lvl1 = fine.groupby("event_type", as_index=False)[["n", "cents"]].sum()
        lvl1["hour"] = -1
        total = pd.DataFrame(
            {
                "event_type": ["ALL"],
                "hour": [-1],
                "n": [fine.n.sum()],
                "cents": [fine.cents.sum()],
            }
        )
        out = pd.concat([fine, lvl1, total], ignore_index=True)
        out = out.rename(columns={"n": "n_events", "cents": "value_cents"})
        out["hour"] = out.hour.astype(np.int64)
        out["n_events"] = out.n_events.astype(np.int64)
        out["value_cents"] = out.value_cents.astype(np.int64)
        return out[["event_type", "hour", "n_events", "value_cents"]]

    # one group on purpose: every level needs every (type, hour) row
    return part.groupby("group").map_groups(rollup, batch_format="pandas")


SQL_EVENTS_ROLLUP = """
WITH r AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
         count(*) AS n, SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS cents
  FROM events GROUP BY ROLLUP(event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT))
)
SELECT COALESCE(event_type, 'ALL') AS event_type, COALESCE(hour, -1) AS hour,
       CAST(n AS BIGINT) AS n_events,
       CAST(COALESCE(cents, 0) AS BIGINT) AS value_cents
FROM r
"""


def q_events_cube(sf_dir: str):
    """CUBE aggregate over (event_type, hour) — all FOUR grouping sets
    (rollup emits three; the hour-only subtotal is the cube-specific
    one), sentinel-encoded ('ALL' / -1) like events_rollup so the hash
    compare is null-free.  Same scale shape: the finest key space is
    bounded (#event_types x 24), per-batch partials collapse to ≤120
    rows, ONE single-group merge derives every level vectorized."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour": pc.cast(pc.hour(batch.column("ts")), pa.int64()),
                "cents": pa.array(_cents(np.asarray(batch.column("value")))),
                "n": np.ones(batch.num_rows, dtype=np.int64),
            }
        )
        agg = t.group_by(["event_type", "hour"]).aggregate(
            [("cents", "sum"), ("n", "sum")]
        )
        return pa.table(
            {
                "event_type": agg.column("event_type"),
                "hour": agg.column("hour"),
                "cents": agg.column("cents_sum"),
                "n": agg.column("n_sum"),
                "group": np.zeros(agg.num_rows, dtype=np.int64),
            }
        )

    import ray.data

    part = ds.map_batches(partial, batch_format="pyarrow")
    # seed: CUBE over an empty table still emits the grand-total row
    seed = ray.data.from_items(
        [{"event_type": "\x00seed", "hour": -1, "cents": 0, "n": 0, "group": 0}]
    )
    part = part.union(seed)

    def cube(g: pd.DataFrame) -> pd.DataFrame:
        real = g[g.event_type != "\x00seed"]
        fine = real.groupby(["event_type", "hour"], as_index=False)[["n", "cents"]].sum()
        by_type = fine.groupby("event_type", as_index=False)[["n", "cents"]].sum()
        by_type["hour"] = -1
        by_hour = fine.groupby("hour", as_index=False)[["n", "cents"]].sum()
        by_hour["event_type"] = "ALL"
        total = pd.DataFrame(
            {
                "event_type": ["ALL"],
                "hour": [-1],
                "n": [fine.n.sum()],
                "cents": [fine.cents.sum()],
            }
        )
        out = pd.concat([fine, by_type, by_hour, total], ignore_index=True)
        out = out.rename(columns={"n": "n_events", "cents": "value_cents"})
        out["hour"] = out.hour.astype(np.int64)
        out["n_events"] = out.n_events.astype(np.int64)
        out["value_cents"] = out.value_cents.astype(np.int64)
        return out[["event_type", "hour", "n_events", "value_cents"]]

    return part.groupby("group").map_groups(cube, batch_format="pandas")


SQL_EVENTS_CUBE = """
WITH r AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
         count(*) AS n, SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS cents
  FROM events GROUP BY CUBE(event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT))
)
SELECT COALESCE(event_type, 'ALL') AS event_type, COALESCE(hour, -1) AS hour,
       CAST(n AS BIGINT) AS n_events,
       CAST(COALESCE(cents, 0) AS BIGINT) AS value_cents
FROM r
"""


def q_length_outliers(sf_dir: str):
    """Percentile-threshold filter (the 'drop the verbose tail'
    curation gate): keep documents at or above their language's exact
    p90 length.  Pass 1 reuses the bounded-histogram quantile operator
    (only tiny histogram rows shuffle) and materializes ONE row per
    language; the thresholds broadcast in the filter closure (a
    #langs-sized dict — the LANG_ROUTES pattern) so pass 2 is a pure
    streaming scan filter with no join shuffle."""
    thr_rows = q_length_quantiles_per_lang(sf_dir).take_all()
    thr = {r["lang"]: int(r["p90"]) for r in thr_rows}
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def filt(batch: pa.Table) -> pa.Table:
        th = batch.column("lang").to_pandas().map(thr).to_numpy()
        keep = np.asarray(batch.column("n_chars")) >= th
        if keep.all():
            return batch
        return batch.filter(pa.array(keep))

    return ds.map_batches(filt, batch_format="pyarrow")


SQL_LENGTH_OUTLIERS = """
WITH q AS (SELECT lang, quantile_disc(n_chars, 0.9) AS p90
           FROM documents GROUP BY lang)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d JOIN q USING (lang)
WHERE d.n_chars >= q.p90
"""


def q_embedding_stats(sf_dir: str):
    """Exact per-vector stats over the list<float> embedding column —
    the float-semantics pin for the vector family: DuckDB's
    list_sum(list_transform(e, x -> x*x)) squares in FLOAT and
    accumulates sequentially in DOUBLE, so the kernel squares the
    zero-copy stacked float32 matrix and cumsums in float64 (pairwise
    np.sum would NOT match bit-for-bit; verified 1000/1000 exact).
    c0_bin multiplies by a power of two (exact in both engines).
    Embarrassingly parallel — no shuffle."""
    from rapidocr_ray.util import stack_list_column

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "label", "embedding"])

    def stats(batch: pa.Table) -> pa.Table:
        m = stack_list_column(batch.column("embedding"), dtype=np.float32)
        sq = (m * m).astype(np.float64)
        norm2 = np.cumsum(sq, axis=1)[:, -1]
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "label": pc.cast(batch.column("label"), pa.int64()),
                "norm_micro": np.floor(norm2 * 1e6).astype(np.int64),
                "c0_bin": np.floor(m[:, 0].astype(np.float64) * 8.0).astype(np.int64),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


SQL_EMBEDDING_STATS = """
SELECT vec_id, CAST(label AS BIGINT) AS label,
       CAST(floor(list_sum(list_transform(embedding, x -> x*x)) * 1000000) AS BIGINT) AS norm_micro,
       CAST(floor(CAST(embedding[1] AS DOUBLE) * 8) AS BIGINT) AS c0_bin
FROM embeddings
"""


# ===========================================================================
# web-curation widening: PII redaction, paragraph-level dedup,
# URL canonicalization, PSL-lite domain rollup.  Each synthesizes its
# web-shaped input deterministically from `documents` INSIDE the query
# (both Ray and SQL sides compute the identical augmentation), the same
# round-trip discipline as warc_extract_pages / pdf_extract_pages.
# ===========================================================================

_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_IPV4 = r"\b\d{1,3}(\.\d{1,3}){3}\b"


def _ids_str(ids: np.ndarray, mod: int | None = None) -> pa.Array:
    v = ids % mod if mod is not None else ids
    return pc.cast(pa.array(v, type=pa.int64()), pa.string())


def q_pii_redaction(sf_dir: str):
    """PII scrub — the curation stage every crawl corpus runs before
    training: RE2 email + IPv4 redaction (Arrow's replace_substring_regex
    and DuckDB's regexp_replace share the RE2 engine, so match spans are
    identical by construction).  PII-bearing text is synthesized
    deterministically per doc on BOTH sides (emails/IPs vary by doc_id
    residues) so the regexes are exercised on real matches; the value
    pin is md5 of the fully redacted text.  Embarrassingly parallel —
    one vectorized map_batches, no shuffle; the only per-row Python is
    the oracle-pinned md5."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def redact(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        empty = pa.array([""] * len(ids), type=pa.string())
        email2 = pc.if_else(
            pa.array(ids % 3 == 0),
            pc.binary_join_element_wise(
                pa.array([" backup admin."] * len(ids)), _ids_str(ids),
                pa.array(["@example.org"] * len(ids)), "",
            ),
            empty,
        )
        ip2 = pc.if_else(
            pa.array(ids % 2 == 0),
            pc.binary_join_element_wise(
                pa.array([" and 192.168."] * len(ids)), _ids_str(ids, 256),
                pa.array([".1"] * len(ids)), "",
            ),
            empty,
        )
        aug = pc.binary_join_element_wise(
            batch.column("text"),
            pa.array([" contact user"] * len(ids)), _ids_str(ids),
            pa.array(["@mail"] * len(ids)), _ids_str(ids, 7),
            pa.array([".example.com"] * len(ids)), email2,
            pa.array([" from 10."] * len(ids)), _ids_str(ids, 200),
            pa.array(["."] * len(ids)), _ids_str(ids, 251),
            pa.array(["."] * len(ids)), _ids_str(ids, 13),
            ip2, "",
        )
        n_emails = pc.cast(pc.count_substring_regex(aug, pattern=_PII_EMAIL), pa.int64())
        t1 = pc.replace_substring_regex(aug, pattern=_PII_EMAIL, replacement="<EMAIL>")
        n_ips = pc.cast(pc.count_substring_regex(t1, pattern=_PII_IPV4), pa.int64())
        t2 = pc.replace_substring_regex(t1, pattern=_PII_IPV4, replacement="<IP>")
        # INTENTIONAL to_pylist: oracle-pinned per-doc md5 of the
        # redacted text (no Arrow kernel for md5).
        md5s = [hashlib.md5(s.encode()).hexdigest() for s in t2.to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_emails": n_emails,
                "n_ips": n_ips,
                "redacted_md5": pa.array(md5s, type=pa.string()),
            }
        )

    return ds.map_batches(redact, batch_format="pyarrow")


SQL_PII_REDACTION = r"""
WITH aug AS (
  SELECT doc_id,
    text || ' contact user' || CAST(doc_id AS VARCHAR) || '@mail' || CAST(doc_id % 7 AS VARCHAR) || '.example.com'
      || CASE WHEN doc_id % 3 = 0 THEN ' backup admin.' || CAST(doc_id AS VARCHAR) || '@example.org' ELSE '' END
      || ' from 10.' || CAST(doc_id % 200 AS VARCHAR) || '.' || CAST(doc_id % 251 AS VARCHAR) || '.' || CAST(doc_id % 13 AS VARCHAR)
      || CASE WHEN doc_id % 2 = 0 THEN ' and 192.168.' || CAST(doc_id % 256 AS VARCHAR) || '.1' ELSE '' END
    AS t FROM documents),
red AS (
  SELECT doc_id,
    len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_emails,
    regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t1
  FROM aug),
red2 AS (
  SELECT doc_id, n_emails,
    len(regexp_extract_all(t1, '\b\d{1,3}(\.\d{1,3}){3}\b')) AS n_ips,
    regexp_replace(t1, '\b\d{1,3}(\.\d{1,3}){3}\b', '<IP>', 'g') AS t2
  FROM red)
SELECT doc_id, CAST(n_emails AS BIGINT) AS n_emails, CAST(n_ips AS BIGINT) AS n_ips,
       md5(t2) AS redacted_md5
FROM red2
"""


def _paragraphs(text: str, k: int = 8) -> list[str]:
    """Deterministic paragraphization: consecutive k-word chunks (the
    corpus has no newlines; both sides chunk identically)."""
    w = text.split(" ")
    return [" ".join(w[i : i + k]) for i in range(0, len(w), k)]


def q_paragraph_dedup(sf_dir: str):
    """Paragraph-level exact dedup (the RefinedWeb/CCNet staple): a
    paragraph instance survives iff it is the globally-first occurrence
    of its text, ordered by (doc_id, pidx).  Scale shape: shuffle 1
    carries (md5, doc_id, pidx) ONLY — never paragraph text — and meets
    in ``tiered.by_key`` on an int64 of the md5 prefix; winners (the
    kept instances) meet by doc_id in a second ``by_key``
    alongside a pruned re-read of documents, so text crosses the wire
    zero times and is re-paragraphized locally for the kept-concat md5
    pin.  Output per doc: n_paras, n_kept, md5 of the newline-joined
    kept paragraphs."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        # INTENTIONAL to_pylist: oracle-pinned per-doc string chunking
        # + md5 (no Arrow kernel family for either).
        texts = batch.column("text").to_pylist()
        out_doc, out_pidx, out_h = [], [], []
        for d, t in zip(ids, texts):
            for i, para in enumerate(_paragraphs(t)):
                out_doc.append(int(d))
                out_pidx.append(i)
                out_h.append(hashlib.md5(para.encode()).digest())
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "pidx": pa.array(out_pidx, type=pa.int64()),
                "h": pa.array([x.hex() for x in out_h], type=pa.string()),
                # the shuffle key: the md5's first 8 bytes as an int64
                "hk": np.frombuffer(b"".join(x[:8] for x in out_h), dtype="<i8"),
            }
        )

    ex = ds.map_batches(explode, batch_format="pyarrow")

    def winners(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["h", "doc_id", "pidx"]).drop_duplicates("h")
        return g[["doc_id", "pidx"]]

    won = by_key(ex, "hk", winners)

    def won_tag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pidx": batch.column("pidx"),
                "text": pa.nulls(batch.num_rows, pa.string()),
            }
        )

    def doc_tag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pidx": pa.array(np.full(batch.num_rows, -1), type=pa.int64()),
                "text": batch.column("text"),
            }
        )

    both = [
        won.map_batches(won_tag, batch_format="pyarrow"),
        ds.map_batches(doc_tag, batch_format="pyarrow"),
    ]

    def per_doc(group: pd.DataFrame) -> pd.DataFrame:
        docs = group[group.pidx < 0]
        kept = group[group.pidx >= 0]
        kept_sets = kept.groupby("doc_id")["pidx"].agg(set)
        rows = {"doc_id": [], "n_paras": [], "n_kept": [], "kept_md5": []}
        for d, t in zip(docs.doc_id.to_numpy(), docs.text):
            paras = _paragraphs(t)
            ks = kept_sets.get(d, set())
            kept_text = "\n".join(p for i, p in enumerate(paras) if i in ks)
            rows["doc_id"].append(int(d))
            rows["n_paras"].append(len(paras))
            rows["n_kept"].append(len(ks))
            rows["kept_md5"].append(hashlib.md5(kept_text.encode()).hexdigest())
        return pd.DataFrame(rows)

    return by_key(both, "doc_id", per_doc)


SQL_PARAGRAPH_DEDUP = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
p AS (SELECT doc_id, unnest(range(CAST(ceil(len(w)/8.0) AS BIGINT))) AS pidx, w FROM t),
q AS (SELECT doc_id, pidx, array_to_string(w[(pidx*8+1):(pidx*8+8)], ' ') AS para FROM p),
r AS (SELECT doc_id, pidx, para,
        ROW_NUMBER() OVER (PARTITION BY para ORDER BY doc_id, pidx) AS rn FROM q)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_paras,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       md5(COALESCE(string_agg(CASE WHEN rn = 1 THEN para END, chr(10) ORDER BY pidx), '')) AS kept_md5
FROM r GROUP BY doc_id
"""


def q_domain_stats(sf_dir: str):
    """Per-registrable-domain rollup with a PSL-lite suffix rule (the
    real public-suffix algorithm over an embedded {com,org,net,io,co.uk}
    list — 'a.b.co.uk' rolls up to 'b.co.uk', not 'co.uk').  URLs are
    synthesized deterministically, mirrored in the SQL below (hosts
    vary by doc_id residue; 1 in 4 is 'www.').  Scale shape: per-batch partial group_by on (domain, host,
    lang) collapses each batch to its distinct triples, then ONE
    ``tiered.by_key`` shuffle on the domain merges exact distinct-host /
    distinct-lang counts — the user_distinct_types mergeable-partial pattern."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "source", "n_chars"])
    tlds = ["com", "org", "net", "io", "co.uk"]

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        n = len(ids)
        www = pc.if_else(
            pa.array(ids % 4 == 0),
            pa.array(["www."] * n),
            pc.binary_join_element_wise(
                pa.array(["w"] * n), _ids_str(ids, 23), pa.array(["."] * n), ""
            ),
        )
        tld = pa.array(np.asarray(tlds, dtype=object)[ids % 5], type=pa.string())
        host = pc.binary_join_element_wise(
            www, batch.column("source"), pa.array(["-site."] * n), tld, ""
        )
        # PSL-lite registrable domain
        uk = pc.ends_with(host, pattern=".co.uk")
        reg_uk = pc.struct_field(
            pc.extract_regex(host, pattern=r"(?P<d>[^.]+\.co\.uk)$"), "d"
        )
        reg2 = pc.struct_field(
            pc.extract_regex(host, pattern=r"(?P<d>[^.]+\.[^.]+)$"), "d"
        )
        domain = pc.if_else(uk, reg_uk, reg2)
        t = pa.table(
            {
                "domain": domain,
                "host": host,
                "lang": batch.column("lang"),
                "n_chars": batch.column("n_chars"),
            }
        )
        return t.group_by(["domain", "host", "lang"]).aggregate(
            [("n_chars", "sum"), ("n_chars", "count")]
        )

    part = ds.map_batches(partial, batch_format="pyarrow")

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("domain", sort=False)
        out = pd.DataFrame(
            {
                "n_docs": g["n_chars_count"].sum().astype(np.int64),
                "n_hosts": g["host"].nunique().astype(np.int64),
                "sum_chars": g["n_chars_sum"].sum().astype(np.int64),
                "n_langs": g["lang"].nunique().astype(np.int64),
            }
        )
        return out.reset_index()

    return by_key(part, "domain", merge)


SQL_DOMAIN_STATS = r"""
WITH u AS (
  SELECT doc_id, lang, n_chars,
    'https://' ||
      CASE WHEN doc_id % 4 = 0 THEN 'www.' ELSE 'w' || CAST(doc_id % 23 AS VARCHAR) || '.' END
      || source || '-site.'
      || CASE doc_id % 5 WHEN 0 THEN 'com' WHEN 1 THEN 'org' WHEN 2 THEN 'net' WHEN 3 THEN 'io' ELSE 'co.uk' END
      || '/p/' || CAST(doc_id AS VARCHAR) AS url
  FROM documents),
h AS (SELECT doc_id, lang, n_chars, regexp_extract(url, '^[a-z]+://([^/]+)/', 1) AS host FROM u),
d AS (SELECT doc_id, lang, n_chars, host,
        CASE WHEN host LIKE '%.co.uk' THEN regexp_extract(host, '([^.]+\.co\.uk)$', 1)
             ELSE regexp_extract(host, '([^.]+\.[^.]+)$', 1) END AS domain
      FROM h)
SELECT domain, CAST(COUNT(*) AS BIGINT) AS n_docs, CAST(COUNT(DISTINCT host) AS BIGINT) AS n_hosts,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars, CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs
FROM d GROUP BY domain
"""


def q_url_canonical_dedup(sf_dir: str):
    """URL canonicalization + latest-wins dedup — the crawl-side
    normalization exact url-dedup misses: lowercase scheme+host, strip
    the https default port, drop query+fragment, trim one trailing
    slash.  Messy URLs are synthesized deterministically (mixed-case
    host ~50%, ':443' ~20%, utm query ~33%, fragment ~14%, trailing
    slash ~25%; path collides on doc_id%97 so groups are real).  Scale
    shape: canonicalization is one vectorized map_batches; the winner
    pick is ONE ``tiered.by_key`` shuffle on the canonical url with a vectorized
    per-bucket sort/first (no per-url Python)."""
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def canon(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        n = len(ids)
        empty = pa.array([""] * n, type=pa.string())
        url = pc.binary_join_element_wise(
            pc.if_else(pa.array(ids % 3 == 0), pa.array(["HTTPS://"] * n), pa.array(["https://"] * n)),
            pc.if_else(pa.array(ids % 2 == 0), pa.array(["Docs.Example"] * n), pa.array(["docs.example"] * n)),
            pc.if_else(pa.array(ids % 5 == 0), pa.array([":443"] * n), empty),
            pa.array(["/a/"] * n), _ids_str(ids, 97),
            pc.if_else(pa.array(ids % 4 == 0), pa.array(["/"] * n), empty),
            pc.if_else(
                pa.array(ids % 3 == 1),
                pc.binary_join_element_wise(
                    pa.array(["?utm_source=x&id="] * n), _ids_str(ids), ""
                ),
                empty,
            ),
            pc.if_else(pa.array(ids % 7 == 0), pa.array(["#frag"] * n), empty),
            "",
        )
        scheme = pc.utf8_lower(
            pc.struct_field(pc.extract_regex(url, pattern=r"^(?P<s>[A-Za-z]+)://"), "s")
        )
        hostport = pc.struct_field(
            pc.extract_regex(url, pattern=r"^[A-Za-z]+://(?P<h>[^/?#]+)"), "h"
        )
        host = pc.utf8_lower(pc.replace_substring_regex(hostport, pattern=r":443$", replacement=""))
        path = pc.struct_field(
            pc.extract_regex(url, pattern=r"^[A-Za-z]+://[^/?#]+(?P<p>[^?#]*)"), "p"
        )
        is_root = pc.or_(pc.equal(path, ""), pc.equal(path, "/"))
        # '/$' matches at most once, so this trims exactly one slash
        trimmed = pc.replace_substring_regex(path, pattern="/$", replacement="")
        path2 = pc.if_else(is_root, pa.array(["/"] * n), trimmed)
        c = pc.binary_join_element_wise(scheme, pa.array(["://"] * n), host, path2, "")
        return pa.table({"canon_url": c, "doc_id": batch.column("doc_id")})

    part = ds.map_batches(canon, batch_format="pyarrow")

    def pick(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("canon_url", sort=False)["doc_id"]
        mx = g.max()
        return pd.DataFrame(
            {
                "canon_url": mx.index,
                "doc_id": mx.to_numpy().astype(np.int64),
                "n_dups": g.count().to_numpy().astype(np.int64),
            }
        )

    return by_key(part, "canon_url", pick)


SQL_URL_CANONICAL_DEDUP = """
WITH u AS (
  SELECT doc_id,
    CASE WHEN doc_id % 3 = 0 THEN 'HTTPS://' ELSE 'https://' END ||
    CASE WHEN doc_id % 2 = 0 THEN 'Docs.Example' ELSE 'docs.example' END ||
    CASE WHEN doc_id % 5 = 0 THEN ':443' ELSE '' END ||
    '/a/' || CAST(doc_id % 97 AS VARCHAR) ||
    CASE WHEN doc_id % 4 = 0 THEN '/' ELSE '' END ||
    CASE WHEN doc_id % 3 = 1 THEN '?utm_source=x&id=' || CAST(doc_id AS VARCHAR) ELSE '' END ||
    CASE WHEN doc_id % 7 = 0 THEN '#frag' ELSE '' END AS url
  FROM documents),
c AS (
  SELECT doc_id,
    lower(regexp_extract(url, '^([A-Za-z]+)://', 1)) || '://' ||
    lower(regexp_replace(regexp_extract(url, '^[A-Za-z]+://([^/?#]+)', 1), ':443$', '')) ||
    CASE WHEN p = '' OR p = '/' THEN '/'
         WHEN p LIKE '%/' THEN left(p, len(p)-1)
         ELSE p END AS canon
  FROM (SELECT doc_id, url, regexp_extract(url, '^[A-Za-z]+://[^/?#]+([^?#]*)', 1) AS p FROM u)),
r AS (SELECT doc_id, canon, ROW_NUMBER() OVER (PARTITION BY canon ORDER BY doc_id DESC) AS rn,
             COUNT(*) OVER (PARTITION BY canon) AS n_dups FROM c)
SELECT canon AS canon_url, doc_id, CAST(n_dups AS BIGINT) AS n_dups FROM r WHERE rn = 1
"""



def _log10_micro(q) -> np.ndarray:
    """floor(log10(q) * 1e6) as int64 — the fuzz-pinned quantized log
    of the scorers (Python/numpy/DuckDB libm log10 agree bit-for-bit on
    IEEE-exact int/int quotients)."""
    return np.floor(np.log10(q) * 1e6).astype(np.int64)


def _split(batch: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """Whitespace tokens of a docs batch: (flat tokens, tokens per doc).
    Empty text is one '' token, as string_split gives in SQL."""
    toks = pc.split_pattern(batch.column("text"), " ")
    return pc.list_flatten(toks), pc.list_value_length(toks).to_numpy().astype(np.int64)


def _token_keys(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """keys_of for the token-keyed scorers: every token instance."""
    flat, lens = _split(batch)
    return flat.to_numpy(zero_copy_only=False), lens


def _uni_count_partial(batch: pa.Table) -> pa.Table:
    """Per-batch corpus unigram counts (key, c) — shared by the unigram
    and bigram scorers."""
    flat, _ = _split(batch)
    agg = pa.table({"key": flat}).group_by("key").aggregate([("key", "count")])
    return pa.table({"key": agg["key"], "c": agg["key_count"]})


def _doc_sum_columns(n_col: str, sum_col: str):
    """finish of a one-valued keyed sum: (doc_id, n_col, sum_col)."""

    def finish(docs: pa.Table, n, sums, tot) -> pa.Table:
        return pa.table(
            {
                "doc_id": docs["doc_id"],
                n_col: pa.array(n, type=pa.int64()),
                sum_col: pa.array(sums[:, 0], type=pa.int64()),
            }
        )

    return finish


def _unigram_lp(rows: pa.Table, tot: pd.Series) -> np.ndarray:
    c = np.asarray(rows["c"], dtype=np.float64)
    return _log10_micro(c / float(tot["n"]))[:, None]


def q_unigram_logprob(sf_dir: str):
    """Unigram-LM quality score (the CCNet/KenLM-style perplexity
    filter, self-trained): per-doc sum of lp(t) = floor(log10(c/N)*1e6)
    over its tokens, c the corpus count of t and N the corpus token
    count.  The count pass is per-batch `pa.Table.group_by` partials and
    ONE token-keyed `tiered.count_table` merge; scoring is
    `tiered.keyed_sum` (the per-token table broadcast once, or attached
    through `tiered.by_key` on the token past `tiered.BROADCAST_LIMIT`
    rows).  The per-doc SUM is integer so
    accumulation order cannot diverge."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return keyed_sum(
        ds,
        _token_keys,
        count_table(ds, _uni_count_partial),
        _unigram_lp,
        _doc_sum_columns("n_tokens", "logprob_micro_sum"),
        totals=lambda rows: pd.Series({"n": pc.sum(rows["c"]).as_py()}),
    )


SQL_UNIGRAM_LOGPROB = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
cnt AS (SELECT t, COUNT(*) AS c FROM tok GROUP BY t),
tot AS (SELECT CAST(SUM(c) AS DOUBLE) AS n FROM cnt),
j AS (SELECT doc_id, CAST(floor(log10(CAST(c AS DOUBLE)/n)*1000000) AS BIGINT) AS lp
      FROM tok JOIN cnt USING (t), tot)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(lp) AS BIGINT) AS logprob_micro_sum
FROM j GROUP BY doc_id
"""


def _lead_key(text: str) -> str:
    """Leading-content fingerprint: first 8 words (crawl-dedup proxy
    for shared boilerplate headers; mirrors SQL list slice [1:8])."""
    return " ".join(text.split(" ")[:8])


def q_incremental_dedup(sf_dir: str, n_bits_log2: int = 20):
    """Incremental (cross-snapshot) dedup — the shape every recurring
    crawl ingest needs: flag each NEW document whose leading-content
    fingerprint already appeared in the PRIOR snapshot (doc_id%3==0,
    the deterministic stand-in).  Scale shape: the prior side builds a
    mergeable Bloom filter (per-batch 128 KB bit partials, OR-reduced,
    broadcast once via ray.put + ``broadcast_get``); new docs stream through
    the probe and ONLY Bloom candidates enter the exact-verify
    bucketed semi-join — false positives are removed there, so the
    output is EXACT (hash-checked) while non-candidates never shuffle.
    The probe's key computation is recomputed for the two branches
    (hash-only recompute beats materializing the corpus)."""
    import hashlib
    import ray

    NEW_ROW, PRIOR_ROW = 0, 1
    m = 1 << n_bits_log2
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _keys(batch: pa.Table) -> tuple[np.ndarray, list[bytes]]:
        ids = np.asarray(batch.column("doc_id"))
        # INTENTIONAL to_pylist: oracle-pinned per-doc md5 of the key
        texts = batch.column("text").to_pylist()
        return ids, [hashlib.md5(_lead_key(t).encode()).digest() for t in texts]

    def _positions(digests: list[bytes]) -> np.ndarray:
        """4 Bloom positions per key from the md5 digest (rows x 4)."""
        if not digests:
            return np.zeros((0, 4), dtype=np.int64)
        raw = np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 4)
        return (raw % m).astype(np.int64)

    def bloom_partial(batch: pa.Table) -> pa.Table:
        ids, digs = _keys(batch)
        prior = [d for i, d in zip(ids, digs) if i % 3 == 0]
        bits = np.zeros(m, dtype=bool)
        bits[_positions(prior).ravel()] = True
        # bitorder='little' so the probe's (byte >> (pos & 7)) & 1 is bit pos
        return pa.table(
            {"bloom": pa.array([np.packbits(bits, bitorder="little").tobytes()])}
        )

    parts = ds.map_batches(bloom_partial, batch_format="pyarrow").take_all()
    bloom = np.zeros(m // 8, dtype=np.uint8)
    for r in parts:
        bloom |= np.frombuffer(r["bloom"], dtype=np.uint8)
    ref = ray.put(bloom)

    def probe(batch: pa.Table) -> pa.Table:
        bl = broadcast_get(ref)
        ids, digs = _keys(batch)
        new_mask = ids % 3 != 0
        nids = ids[new_mask]
        ndigs = [d for d, k in zip(digs, new_mask) if k]
        pos = _positions(ndigs)
        hit = (
            ((bl[pos >> 3] >> (pos & 7)) & 1).all(axis=1)
            if len(ndigs)
            else np.zeros(0, dtype=bool)
        )
        return pa.table(
            {
                "doc_id": pa.array(nids, type=pa.int64()),
                "key": pa.array([d.hex() for d in ndigs], type=pa.string()),
                "cand": pa.array(hit, type=pa.bool_()),
            }
        )

    def resolved(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.invert(batch.column("cand")))
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "is_dup": pa.array(np.zeros(len(b), dtype=np.int64), type=pa.int64()),
            }
        )

    def cand_rows(batch: pa.Table) -> pa.Table:
        b = batch.filter(batch.column("cand"))
        return pa.table(
            {
                "kind": pa.array(np.full(b.num_rows, NEW_ROW), type=pa.int8()),
                "doc_id": b.column("doc_id"),
                "key": b.column("key"),
            }
        )

    def prior_rows(batch: pa.Table) -> pa.Table:
        ids, digs = _keys(batch)
        sel = ids % 3 == 0
        keys = [d.hex() for d, k in zip(digs, sel) if k]
        return pa.table(
            {
                "kind": pa.array(np.full(len(keys), PRIOR_ROW), type=pa.int8()),
                "doc_id": pa.array(ids[sel], type=pa.int64()),
                "key": pa.array(keys, type=pa.string()),
            }
        )

    # NOTE: consuming probe_ds from two branches re-executes the
    # (narrow, hash-only) probe per consumer — at corpus scale that
    # recompute beats materializing a per-doc intermediate.
    probe_ds = ds.map_batches(probe, batch_format="pyarrow")
    easy = probe_ds.map_batches(resolved, batch_format="pyarrow")
    cand = probe_ds.map_batches(cand_rows, batch_format="pyarrow")
    prior = ds.map_batches(prior_rows, batch_format="pyarrow")

    def verify(group: pd.DataFrame) -> pa.Table:
        # emit ARROW so the union with the (arrow-block) resolved
        # branch is homogeneous — iter_batches consumers assert on
        # mixed block types even though to_pandas() tolerates them
        pset = set(group[group.kind == PRIOR_ROW].key)
        c = group[group.kind == NEW_ROW]
        return pa.table(
            {
                "doc_id": pa.array(c.doc_id.to_numpy().astype(np.int64), type=pa.int64()),
                "is_dup": pa.array(
                    c.key.isin(pset).to_numpy().astype(np.int64), type=pa.int64()
                ),
            }
        )

    checked = by_key([cand, prior], "key", verify)
    return easy.union(checked)


SQL_INCREMENTAL_DEDUP = """
WITH k AS (SELECT doc_id, array_to_string(string_split(text, ' ')[1:8], ' ') AS key
           FROM documents)
SELECT d.doc_id,
       CAST(CASE WHEN EXISTS(SELECT 1 FROM k p WHERE p.doc_id % 3 = 0 AND p.key = d.key)
            THEN 1 ELSE 0 END AS BIGINT) AS is_dup
FROM k d WHERE d.doc_id % 3 <> 0
"""


def q_range_join(sf_dir: str, window_us: int = 3_600_000_000):
    """Interval non-equi self-join (the brief's named 'range join'
    custom operator): for every purchase event, count and cents-sum the
    same user's events in the half-open hour [ts-1h, ts).  Scale shape:
    ONE ``tiered.by_key`` shuffle on the user (no all-pairs blowup — the range
    predicate is resolved per user by sorting once and binary-searching
    both interval ends against a prefix-sum, so a bucket costs
    O(n log n) not O(n^2)).  All arithmetic in int64 microseconds and
    exact cents, so no float accumulation can diverge from the SQL."""
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "t_us": pa.array(
                    np.asarray(batch.column("ts")).astype("datetime64[us]").astype(np.int64),
                    type=pa.int64(),
                ),
                "user_id": batch.column("user_id"),
                "is_p": pc.equal(batch.column("event_type"), "purchase"),
                "cents": pa.array(_cents(np.asarray(batch.column("value"))), type=pa.int64()),
            }
        )

    part = ds.map_batches(prep, batch_format="pyarrow")

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "t_us", "event_id"], kind="mergesort")
        t = g.t_us.to_numpy()
        cents = g.cents.to_numpy()
        out_id, out_n, out_c = [], [], []
        # per-user slices: events per user are bounded, vectorized inside
        starts = np.flatnonzero(
            np.concatenate([[True], g.user_id.to_numpy()[1:] != g.user_id.to_numpy()[:-1]])
        )
        ends = np.concatenate([starts[1:], [len(g)]])
        for s, e in zip(starts, ends):
            ts = t[s:e]
            cs = np.concatenate([[0], np.cumsum(cents[s:e])])
            pm = g.is_p.to_numpy()[s:e]
            if not pm.any():
                continue
            pt = ts[pm]
            lo = np.searchsorted(ts, pt - window_us, side="left")
            hi = np.searchsorted(ts, pt, side="left")
            out_id.extend(g.event_id.to_numpy()[s:e][pm].tolist())
            out_n.extend((hi - lo).tolist())
            out_c.extend((cs[hi] - cs[lo]).tolist())
        return pd.DataFrame(
            {
                "event_id": np.asarray(out_id, dtype=np.int64),
                "n_prior": np.asarray(out_n, dtype=np.int64),
                "prior_value_cents": np.asarray(out_c, dtype=np.int64),
            }
        )

    return by_key(part, "user_id", per_bucket)


SQL_RANGE_JOIN = """
SELECT p.event_id,
       CAST(COUNT(e.event_id) AS BIGINT) AS n_prior,
       CAST(COALESCE(SUM(CAST(floor(e.value*100+0.5) AS BIGINT)), 0) AS BIGINT) AS prior_value_cents
FROM events p LEFT JOIN events e
  ON e.user_id = p.user_id AND e.ts >= p.ts - INTERVAL 1 HOUR AND e.ts < p.ts
WHERE p.event_type = 'purchase'
GROUP BY p.event_id
"""


def q_doc_embedding_join(sf_dir: str):
    """Cross-modal curation join (documents ⋈ embeddings on
    doc_id = vec_id) with the keep-gate computed post-join.  The scale
    pattern on display: the WIDE column (the 256-byte embedding) is
    reduced to its 8-byte exact norm BEFORE the shuffle, so the
    bucketed join moves only scalars; norm_micro reuses the
    embedding_stats float pin (float32 squares, sequential float64
    cumsum — matches DuckDB's list_sum(list_transform(...)) exactly;
    the corpus's unit vectors split 999999/1000000 micro, so any
    accumulation-order drift fails the hash immediately)."""
    from rapidocr_ray.util import stack_list_column

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": pc.cast(b.column("n_chars"), pa.int64()),
                "label": pa.array(np.full(b.num_rows, -1), type=pa.int64()),
                "norm_micro": pa.array(np.full(b.num_rows, -1), type=pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def emb_side(batch: pa.Table) -> pa.Table:
        m = stack_list_column(batch.column("embedding"), dtype=np.float32)
        sq = (m * m).astype(np.float64)
        norm2 = np.cumsum(sq, axis=1)[:, -1] if m.size else np.zeros(0)
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("vec_id"), pa.int64()),
                "n_chars": pa.array(np.full(batch.num_rows, -1), type=pa.int64()),
                "label": pc.cast(batch.column("label"), pa.int64()),
                "norm_micro": pa.array(
                    np.floor(norm2 * 1e6).astype(np.int64), type=pa.int64()
                ),
            }
        )

    emb = _read(
        sf_dir, "embeddings", columns=["vec_id", "label", "embedding"]
    ).map_batches(emb_side, batch_format="pyarrow")

    def join(group: pd.DataFrame) -> pa.Table:
        d = group[group.label < 0][["doc_id", "n_chars"]]
        e = group[group.label >= 0][["doc_id", "label", "norm_micro"]]
        m = d.merge(e, on="doc_id")
        keep = ((m.label % 2 == 0) & (m.n_chars >= 200)).to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(m.doc_id.to_numpy(), type=pa.int64()),
                "n_chars": pa.array(m.n_chars.to_numpy(), type=pa.int64()),
                "label": pa.array(m.label.to_numpy(), type=pa.int64()),
                "norm_micro": pa.array(m.norm_micro.to_numpy(), type=pa.int64()),
                "keep": pa.array(keep, type=pa.int64()),
            }
        )

    return by_key([docs, emb], "doc_id", join)


SQL_DOC_EMBEDDING_JOIN = """
WITH e AS (SELECT vec_id, CAST(label AS BIGINT) AS label,
                  CAST(floor(list_sum(list_transform(embedding, x -> x*x)) * 1000000) AS BIGINT) AS norm_micro
           FROM embeddings)
SELECT d.doc_id, CAST(d.n_chars AS BIGINT) AS n_chars, e.label, e.norm_micro,
       CAST(CASE WHEN e.label % 2 = 0 AND d.n_chars >= 200 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM documents d JOIN e ON e.vec_id = d.doc_id
"""


def q_link_graph_stats(sf_dir: str):
    """Weighted domain link-graph edge list (src, dst, w) derived from
    documents by the deterministic outlink rule (stages/graph.py) —
    pins the edge-derivation bucketed join + weight merge on its own,
    separately from the pagerank that consumes it."""
    from rapidocr_ray.stages.graph import derive_domain_edges

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return derive_domain_edges(ds, n_docs=ds.count())


SQL_LINK_GRAPH_STATS = """
WITH docs AS (SELECT doc_id, source FROM documents),
n AS (SELECT COUNT(*) AS nd FROM docs),
tgt AS (SELECT a.source AS src, (a.doc_id * 48271 + j.j) % (SELECT nd FROM n) AS t
        FROM docs a CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS j) AS j)
SELECT t.src, b.source AS dst, CAST(COUNT(*) AS BIGINT) AS w
FROM tgt t JOIN docs b ON b.doc_id = t.t
GROUP BY 1, 2
"""


def q_domain_pagerank(sf_dir: str, n_iter: int = 5):
    """Iterative integer PageRank over the derived domain graph —
    rank_nano is int64 nano-units of a 10^12 total mass, every step
    integer arithmetic, so the unrolled-CTE DuckDB oracle matches
    bit-for-bit with no float pin (stages/graph.py docstring)."""
    from rapidocr_ray.stages.graph import derive_domain_edges, pagerank_int

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    edges = derive_domain_edges(ds, n_docs=ds.count())
    return pagerank_int(edges, n_iter=n_iter)


def _pagerank_ctes(n_iter: int = 5) -> str:
    """The WITH-chain for the pagerank oracle, reusable as a prefix by
    composition queries (rank_weighted_sample)."""
    head = """
WITH docs AS (SELECT doc_id, source FROM documents),
n AS (SELECT COUNT(*) AS nd FROM docs),
tgt AS (SELECT a.source AS src, (a.doc_id * 48271 + j.j) % (SELECT nd FROM n) AS t
        FROM docs a CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS j) AS j),
edges AS (SELECT t.src, b.source AS dst, COUNT(*) AS w
          FROM tgt t JOIN docs b ON b.doc_id = t.t GROUP BY 1, 2),
outw AS (SELECT src, SUM(w) AS ow FROM edges GROUP BY 1),
nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
nn AS (SELECT COUNT(*) AS c FROM nodes),
r0 AS (SELECT node, CAST(1000000000000 // (SELECT c FROM nn) AS BIGINT) AS r
       FROM nodes)"""
    steps = []
    for i in range(1, n_iter + 1):
        steps.append(f""",
r{i} AS (SELECT nodes.node,
         CAST((1000000000000 * 15) // (100 * (SELECT c FROM nn))
              + (85 * COALESCE(s.insum, 0)) // 100 AS BIGINT) AS r
         FROM nodes LEFT JOIN (
           SELECT e.dst AS node, SUM((r.r // o.ow) * e.w) AS insum
           FROM edges e JOIN r{i - 1} r ON r.node = e.src
                        JOIN outw o ON o.src = e.src
           GROUP BY 1) s ON s.node = nodes.node)""")
    return head + "".join(steps)


def _pagerank_sql(n_iter: int = 5) -> str:
    """Unrolled-iteration DuckDB oracle for q_domain_pagerank: same
    integer semantics — share = r // out_weight (floor), damped sum
    floored once on the TOTAL in-sum, teleport floored once."""
    return _pagerank_ctes(n_iter) + f"\nSELECT node, r AS rank_nano FROM r{n_iter}"


SQL_DOMAIN_PAGERANK = _pagerank_sql(5)


def q_rank_weighted_sample(sf_dir: str, n_iter: int = 5):
    """Rank-aware curation gate — the composition a real corpus sweep
    runs: the domain PageRank signal (small: one row per domain)
    broadcasts back into a STREAMING per-doc filter; a doc survives
    when its deterministic 32-bit hash falls under a threshold
    proportional to its domain's rank (domains with 2x the rank keep
    ~2x the docs).  All integer: threshold = rank_nano * n_nodes * 2^31
    // 10^12, hash = doc_id * 2654435761 mod 2^32 — bit-identical in
    SQL.  Scale shape: pagerank's own tiers handle the graph; the doc
    pass is one map_batches with the rank lookup ray.put once."""
    import ray

    from rapidocr_ray.stages.graph import TOTAL_NANO, derive_domain_edges, pagerank_int

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    edges = derive_domain_edges(ds, n_docs=ds.count())
    ranks_df = pagerank_int(edges, n_iter=n_iter).to_pandas()
    n_nodes = len(ranks_df)
    # Python-int product: rank_nano * n_nodes * 2^31 exceeds int64 —
    # exact arbitrary-precision division here, HUGEINT in the SQL
    thresh = np.array(
        [int(r) * n_nodes * 2**31 // TOTAL_NANO for r in ranks_df["rank_nano"]],
        dtype=np.int64,
    )
    lookup_ref = ray.put(pd.Series(thresh, index=ranks_df["node"].to_numpy()))

    def gate(batch: pa.Table) -> pa.Table:
        lk = broadcast_get(lookup_ref)
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        th = lk.reindex(
            batch.column("source").to_pandas(), fill_value=0
        ).to_numpy(np.int64)
        keep = (ids * 2654435761 % 2**32) < th
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], type=pa.int64()),
                "source": pc.cast(batch.column("source"), pa.string()).filter(
                    pa.array(keep)
                ),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()).filter(
                    pa.array(keep)
                ),
            }
        )

    return ds.map_batches(gate, batch_format="pyarrow")


SQL_RANK_WEIGHTED_SAMPLE = _pagerank_ctes(5) + """
, ranks AS (SELECT node, r AS rank_nano FROM r5)
SELECT d.doc_id, d.source, CAST(d.n_chars AS BIGINT) AS n_chars
FROM documents d JOIN ranks ON ranks.node = d.source
WHERE (d.doc_id * 2654435761) % 4294967296
      < (CAST(ranks.rank_nano AS HUGEINT) * (SELECT c FROM nn) * 2147483648)
        // 1000000000000
"""


def q_sequence_packing(sf_dir: str, seq_len: int = 256, n_shards: int = 8):
    """Pretraining sequence packing (shard-local, deterministic): docs
    are sharded by doc_id % n_shards, ordered by doc_id within a shard,
    and concatenated into fixed seq_len-token sequences — each doc gets
    (seq_id, offset_in_seq) from the shard's running token cumsum, the
    boundary-spanning layout a packed-pretraining loader materializes.
    Scale shape: ONE bounded shuffle on the shard key (n_shards is the
    parallelism knob; thousands at real scale), per-shard sort +
    vectorized cumsum — no driver state."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def count_tokens(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        n = np.asarray(
            pc.list_value_length(pc.split_pattern(batch.column("text"), " ")),
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "shard": pa.array(ids % n_shards, type=pa.int64()),
                "n_tokens": pa.array(n, type=pa.int64()),
            }
        )

    def pack(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values("doc_id")
        n = g.n_tokens.to_numpy(np.int64)
        cum = np.cumsum(n) - n  # token offset where each doc starts
        return pa.table(
            {
                "doc_id": pa.array(g.doc_id.to_numpy(np.int64), type=pa.int64()),
                "shard": pa.array(g.shard.to_numpy(np.int64), type=pa.int64()),
                "seq_id": pa.array(cum // seq_len, type=pa.int64()),
                "offset_in_seq": pa.array(cum % seq_len, type=pa.int64()),
                "n_tokens": pa.array(n, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(count_tokens, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pack, batch_format="pandas")
    )


SQL_SEQUENCE_PACKING = """
WITH t AS (SELECT doc_id, doc_id % 8 AS shard,
                  CAST(len(string_split(text, ' ')) AS BIGINT) AS n
           FROM documents),
c AS (SELECT doc_id, shard, n,
             SUM(n) OVER (PARTITION BY shard ORDER BY doc_id
                          ROWS UNBOUNDED PRECEDING) - n AS start
      FROM t)
SELECT doc_id, shard, CAST(start // 256 AS BIGINT) AS seq_id,
       CAST(start % 256 AS BIGINT) AS offset_in_seq, n AS n_tokens
FROM c
"""


# RE2-safe GPT-2-style pre-tokenizer (no lookahead — RE2 has none):
# space-glued letter runs, digit runs, punctuation runs, whitespace runs
_BPE_PATTERN = r" ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+"


def q_bpe_token_stats(sf_dir: str):
    """BPE-ish token counting (the brief's second tokenizer: whitespace
    split is q_token_counts; this is the GPT-2-style pre-tokenizer) —
    per-doc counts of pre-tokenizer pieces, letter runs and digit runs.
    Arrow's ``count_substring_regex`` and DuckDB's ``regexp_extract_all``
    share the RE2 engine, so match counts are identical by construction
    (the pii_redaction parity argument).  Text is augmented
    deterministically per doc with digits/punctuation on BOTH sides so
    the non-letter branches are exercised on a plain-word corpus.
    Embarrassingly parallel: three vectorized kernels per batch, no
    shuffle, no Python per row."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        aug = pc.binary_join_element_wise(
            batch.column("text"),
            pa.array([" v"] * len(ids)),
            _ids_str(ids),
            pa.array([".0 (doc#"] * len(ids)),
            _ids_str(ids),
            pa.array([")"] * len(ids)),
            "",
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_bpe_tokens": pc.cast(
                    pc.count_substring_regex(aug, _BPE_PATTERN), pa.int64()
                ),
                "n_alpha_runs": pc.cast(
                    pc.count_substring_regex(aug, r"\p{L}+"), pa.int64()
                ),
                "n_digit_runs": pc.cast(
                    pc.count_substring_regex(aug, r"\p{N}+"), pa.int64()
                ),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


SQL_BPE_TOKEN_STATS = r"""
WITH aug AS (SELECT doc_id,
    text || ' v' || CAST(doc_id AS VARCHAR) || '.0 (doc#'
         || CAST(doc_id AS VARCHAR) || ')' AS t
    FROM documents)
SELECT doc_id,
  CAST(len(regexp_extract_all(t, ' ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+')) AS BIGINT) AS n_bpe_tokens,
  CAST(len(regexp_extract_all(t, '\p{L}+')) AS BIGINT) AS n_alpha_runs,
  CAST(len(regexp_extract_all(t, '\p{N}+')) AS BIGINT) AS n_digit_runs
FROM aug
"""


_BM25_TERMS: tuple = ("vector", "stream", "window")


def q_bm25_topk(sf_dir: str, k: int = 10, force_bigint: bool = False):
    """BM25 top-k retrieval (query-driven curation: rank the corpus
    against a fixed term set, the shape behind benchmark-targeted data
    selection).  Determinism pin: with k1=6/5 and b=3/4 as exact
    rationals the tf component is pure integer arithmetic —
    ``floor(idf_u * 44*AV*tf / (20*AV*tf + 6*AV + 18*dl*N))`` per term,
    summed as int64 — and the ONLY float is one ``ln`` per term,
    ``idf_u = floor(ln((N-df+0.5)/(df+0.5)+1)*1e6)``, whose double
    construction and libm call are bit-identical numpy-vs-DuckDB
    (100k fuzz, same protocol as unigram_logprob's log10 pin).

    Scale shape: text is tokenized ONCE into a compact fixed-width
    projection (doc_id, dl, tf per term ≈ 40 B/doc), materialized so
    the stats pass and the scoring pass never re-read text; global
    stats (N, AV, per-term df) come from per-batch one-row partials
    merged driver-side (bounded by #blocks); scoring streams over the
    projection and top-k is per-batch local top-k into a tiny global
    sort (#blocks × k rows).  Integer headroom is validated before the
    vectorized path (numerator idf_max·44·AV·tf_max AND denominator
    20·AV·tf_max+6·AV+18·dl_max·N must clear int64 with a 2× margin)
    — past it, scoring falls back to exact Python-int
    arithmetic over candidate rows only (the oracle uses HUGEINT, so
    both paths stay exact at any corpus size)."""
    terms = list(_BM25_TERMS)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tokenize_tf(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), pattern=" ")
        dl = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        ends = np.cumsum(dl)
        starts = ends - dl
        flat = pc.list_flatten(toks)
        cols = {
            "doc_id": batch.column("doc_id"),
            "dl": pa.array(dl, type=pa.int64()),
        }
        for i, t in enumerate(terms):
            hit = np.asarray(pc.cast(pc.equal(flat, t), pa.int64()))
            cs = np.concatenate([[0], np.cumsum(hit)])
            cols[f"tf_{i}"] = pa.array(cs[ends] - cs[starts], type=pa.int64())
        return pa.table(cols)

    # compact projection: ~ (2 + n_terms) int64s per doc; materialized so
    # stats + scoring reuse it without re-tokenizing the corpus
    compact = ds.map_batches(tokenize_tf, batch_format="pyarrow").materialize()

    def stats_partial(batch: pa.Table) -> pa.Table:
        row: dict = {
            "n": pa.array([len(batch)], type=pa.int64()),
            "sum_dl": pa.array(
                [int(np.asarray(batch.column("dl")).sum())], type=pa.int64()
            ),
            "max_dl": pa.array(
                [int(np.asarray(batch.column("dl")).max()) if len(batch) else 0],
                type=pa.int64(),
            ),
        }
        for i in range(len(terms)):
            tf = np.asarray(batch.column(f"tf_{i}"))
            row[f"df_{i}"] = pa.array([int((tf > 0).sum())], type=pa.int64())
            row[f"mtf_{i}"] = pa.array(
                [int(tf.max()) if len(tf) else 0], type=pa.int64()
            )
        return pa.table(row)

    parts = compact.map_batches(stats_partial, batch_format="pyarrow").take_all()
    n_docs = sum(r["n"] for r in parts)
    av = sum(r["sum_dl"] for r in parts)
    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "bm25_micro": pa.array([], type=pa.int64()),
        }
    )
    if n_docs == 0 or av == 0:
        # a pa.Table (driver-accepted) keeps the 2-column schema that a
        # zero-row Dataset's to_pandas() would drop
        return empty
    df_t = [sum(r[f"df_{i}"] for r in parts) for i in range(len(terms))]
    mtf_t = [max(r[f"mtf_{i}"] for r in parts) for i in range(len(terms))]
    # idf in micro-units: double construction matches the SQL expression
    # term-for-term (cast-to-double before the +0.5), ln is libm on both
    idf_u = [
        int(np.floor(np.log((float(n_docs - d) + 0.5) / (float(d) + 0.5) + 1.0) * 1e6))
        for d in df_t
    ]
    max_dl = max(r["max_dl"] for r in parts)
    mtf_all = max(max(mtf_t), 1)
    # BOTH sides of the floor-div must clear int64 (a tiny-idf term over a
    # huge corpus can overflow the 18·dl·N denominator while the numerator
    # bound still passes)
    vector_ok = (
        not force_bigint
        and all(iu * 44 * av * max(m, 1) < (1 << 62) for iu, m in zip(idf_u, mtf_t))
        and 20 * av * mtf_all + 6 * av + 18 * max_dl * n_docs < (1 << 62)
    )

    def score(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        dl = np.asarray(batch.column("dl"), dtype=np.int64)
        tfs = [np.asarray(batch.column(f"tf_{i}"), dtype=np.int64) for i in range(len(terms))]
        cand = np.zeros(len(ids), dtype=bool)
        for tf in tfs:
            cand |= tf > 0
        if not cand.any():
            return empty
        ids, dl = ids[cand], dl[cand]
        if vector_ok:
            s = np.zeros(len(ids), dtype=np.int64)
            for iu, tf in zip(idf_u, tfs):
                tfc = tf[cand]
                num = iu * 44 * av * tfc
                den = 20 * av * tfc + 6 * av + 18 * dl * n_docs
                s += num // den
        else:
            # exact big-int fallback: candidate rows only, Python ints
            s = np.array(
                [
                    sum(
                        (iu * 44 * av * int(tf[ci])) // (20 * av * int(tf[ci]) + 6 * av + 18 * int(d) * n_docs)
                        for iu, tf in zip(idf_u, tfs)
                    )
                    for ci, d in zip(np.nonzero(cand)[0], dl)
                ],
                dtype=np.int64,
            )
        order = np.lexsort((ids, -s))[:k]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], type=pa.int64()),
                "bm25_micro": pa.array(s[order], type=pa.int64()),
            }
        )

    return (
        compact.map_batches(score, batch_format="pyarrow")
        .sort([("bm25_micro"), ("doc_id")], descending=[True, False])
        .limit(k)
    )


SQL_BM25_TOPK = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
dl AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(dl) AS BIGINT) AS av FROM dl),
qt(term) AS (VALUES ('vector'), ('stream'), ('window')),
tf AS (SELECT doc_id, t AS term, CAST(COUNT(*) AS BIGINT) AS tf
       FROM tok JOIN qt ON tok.t = qt.term GROUP BY doc_id, t),
df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY term),
idf AS (SELECT term,
        CAST(floor(ln((CAST(n - df AS DOUBLE) + 0.5)/(CAST(df AS DOUBLE) + 0.5) + 1.0)
                   * 1000000) AS BIGINT) AS idf_u
        FROM df, stats),
sc AS (SELECT tf.doc_id,
       SUM((CAST(idf_u AS HUGEINT) * 44 * av * tf)
           // (CAST(20 AS HUGEINT) * av * tf + 6 * av + 18 * dl.dl * n)) AS s
       FROM tf JOIN idf USING (term) JOIN dl USING (doc_id), stats
       GROUP BY tf.doc_id)
SELECT doc_id, CAST(s AS BIGINT) AS bm25_micro
FROM sc ORDER BY s DESC, doc_id LIMIT 10
"""


# C4-style badwords gate: whole-word RE2 alternation.  'able' is a
# substring of the corpus-common 'table' — it pins \b semantics (a
# substring match would flag every doc); 'slow' fires for real.
_BLOCKLIST_PATTERN = r"\b(slow|able|junk)\b"


def q_blocklist_filter(sf_dir: str):
    """C4-style blocklist content filter: count whole-word blocklist
    hits per doc and flag clean docs — one vectorized RE2 kernel
    (Arrow ``count_substring_regex`` vs DuckDB ``regexp_extract_all``,
    identical by the shared-engine argument), no shuffle, no Python
    per row.  At 100 TB this is a pure streaming scan; a real badwords
    list (hundreds of terms) compiles to one RE2 alternation exactly
    like this one."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def flag(batch: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(batch.column("text"), _BLOCKLIST_PATTERN),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_blocked": n,
                "is_clean": pc.cast(pc.equal(n, 0), pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


SQL_BLOCKLIST_FILTER = r"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '\b(slow|able|junk)\b')) AS BIGINT) AS n_blocked,
  CAST(len(regexp_extract_all(text, '\b(slow|able|junk)\b')) = 0 AS BIGINT) AS is_clean
FROM documents
"""


def q_ccnet_buckets(sf_dir: str, coarse: int = 1000):
    """CCNet-style quality routing: every doc lands in head / middle /
    tail by GLOBAL terciles of its per-token unigram-LM score (the
    avg = floor(logprob_micro_sum / n_tokens) int64, so accumulation
    order cannot diverge; DuckDB's truncating `//` is corrected to
    floor semantics with exact integer mod arithmetic in the oracle).

    Scale shape: reuses q_unigram_logprob's streaming scorer, then an
    EXACT global tercile without a global sort — the score is a bounded
    integer (± a few × 1e7 micro-units regardless of corpus size), so a
    coarse (value//coarse) histogram of per-batch partials locates each
    boundary's cell driver-side (≤ range/coarse rows), and a second
    filtered pass histograms exact values ONLY inside the (≤2) boundary
    cells.  Boundary rank follows the pinned quantile_disc convention
    sorted[max(0, ceil(q·n)-1)] (tercile q fuzzed vs DuckDB on negative
    values, 600 cases).  Final assignment is one vectorized comparison
    scan; the materialized intermediate is 16 B/doc."""
    import math

    scored = q_unigram_logprob(sf_dir)

    def to_avg(batch: pa.Table) -> pa.Table:
        lp = np.asarray(batch.column("logprob_micro_sum"), dtype=np.int64)
        n = np.asarray(batch.column("n_tokens"), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "avg_lp_micro": pa.array(lp // n, type=pa.int64()),
            }
        )

    avg_ds = scored.map_batches(to_avg, batch_format="pyarrow").materialize()

    def coarse_hist(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch.column("avg_lp_micro"), dtype=np.int64) // coarse
        g = pa.table({"cell": pa.array(c, type=pa.int64())}).group_by(
            ["cell"]
        ).aggregate([("cell", "count")])
        return pa.table(
            {
                "cell": g.column("cell"),
                "cnt": pc.cast(g.column("cell_count"), pa.int64()),
            }
        )

    parts = avg_ds.map_batches(coarse_hist, batch_format="pyarrow").take_all()
    cells: dict = {}
    for r in parts:
        cells[r["cell"]] = cells.get(r["cell"], 0) + r["cnt"]
    n_total = sum(cells.values())
    if n_total == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "avg_lp_micro": pa.array([], type=pa.int64()),
                "bucket": pa.array([], type=pa.string()),
            }
        )
    ks = [max(1, math.ceil((1 / 3) * n_total)), max(1, math.ceil((2 / 3) * n_total))]
    cell_ids = sorted(cells)
    cum = np.cumsum([cells[c] for c in cell_ids])
    k_cell = {k: int(np.searchsorted(cum, k)) for k in ks}
    want_cells = {cell_ids[i] for i in k_cell.values()}

    def fine_hist(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("avg_lp_micro"), dtype=np.int64)
        m = np.isin(v // coarse, list(want_cells))
        g = pa.table({"v": pa.array(v[m], type=pa.int64())}).group_by(
            ["v"]
        ).aggregate([("v", "count")])
        return pa.table(
            {"v": g.column("v"), "cnt": pc.cast(g.column("v_count"), pa.int64())}
        )

    fparts = avg_ds.map_batches(fine_hist, batch_format="pyarrow").take_all()
    fine: dict = {}
    for r in fparts:
        fine[r["v"]] = fine.get(r["v"], 0) + r["cnt"]
    bounds = []
    for k in ks:
        i = k_cell[k]
        c = int(cum[i - 1]) if i else 0  # docs in cells before the boundary cell
        for v in sorted(v for v in fine if v // coarse == cell_ids[i]):
            c += fine[v]
            if c >= k:
                bounds.append(v)
                break
    b1, b2 = bounds

    def assign(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("avg_lp_micro"), dtype=np.int64)
        bucket = np.where(v >= b2, "head", np.where(v >= b1, "middle", "tail"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "avg_lp_micro": batch.column("avg_lp_micro"),
                "bucket": pa.array(bucket, type=pa.string()),
            }
        )

    return avg_ds.map_batches(assign, batch_format="pyarrow")


SQL_CCNET_BUCKETS = f"""
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
cnt AS (SELECT t, COUNT(*) AS c FROM tok GROUP BY t),
tot AS (SELECT CAST(SUM(c) AS DOUBLE) AS n FROM cnt),
j AS (SELECT doc_id, CAST(floor(log10(CAST(c AS DOUBLE)/n)*1000000) AS BIGINT) AS lp
      FROM tok JOIN cnt USING (t), tot),
doc AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(lp) AS BIGINT) AS lps FROM j GROUP BY doc_id),
-- floor division on a negative numerator: subtract the positive mod first
a AS (SELECT doc_id, (lps - (((lps % n) + n) % n)) // n AS avg_lp_micro FROM doc),
b AS (SELECT quantile_disc(avg_lp_micro, {1 / 3!r}) AS b1,
             quantile_disc(avg_lp_micro, {2 / 3!r}) AS b2 FROM a)
SELECT doc_id, CAST(avg_lp_micro AS BIGINT) AS avg_lp_micro,
       CASE WHEN avg_lp_micro >= b2 THEN 'head'
            WHEN avg_lp_micro >= b1 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM a, b
"""


def q_bpe_merge_pairs(sf_dir: str, k: int = 20):
    """BPE-training inner step: the global top-k adjacent token pairs
    by exact count (each merge round of BPE training picks argmax of
    exactly this statistic).  Scale shape mirrors top_terms: per-batch
    pair explosion never leaves the task (zero-copy Arrow slices form
    the left/right arrays; doc boundaries masked vectorized), partial
    counts collapse in-task, ONE ``tiered.by_key`` shuffle on the pair
    merges exactly (a pair lives in one bucket), per-bucket top-k prune
    bounds the final reduce at N_BUCKETS × k rows."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        flat = pc.list_flatten(toks)
        n = len(flat)
        if n < 2:
            return pa.table(
                {
                    "pair": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        pairs = pc.binary_join_element_wise(
            flat.slice(0, n - 1).combine_chunks(),
            flat.slice(1, n - 1).combine_chunks(),
            " ",
        )
        # drop pair positions that straddle a doc boundary
        ends = np.cumsum(lens)
        keep = np.ones(n - 1, dtype=bool)
        keep[ends[:-1] - 1] = False  # last token of each doc (but the final)
        t = pa.table({"pair": pairs.filter(pa.array(keep))})
        agg = t.group_by(["pair"]).aggregate([("pair", "count")])
        return pa.table(
            {
                "pair": agg.column("pair"),
                "n": pc.cast(agg.column("pair_count"), pa.int64()),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow")

    def merge_prune(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("pair", as_index=False)["n"].sum()
        out = out.sort_values(["n", "pair"], ascending=[False, True], kind="mergesort")
        return out.head(k)

    pruned = by_key(part, "pair", merge_prune)

    def topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(["n", "pair"], ascending=[False, True], kind="mergesort").head(k)
        return pa.table(
            {
                "pair": pa.array(df.pair, type=pa.string()),
                "cnt": pa.array(df.n.to_numpy(np.int64), type=pa.int64()),
            }
        )

    # local top-k per block, tiny global sort for the exact final k
    return (
        pruned.map_batches(topk, batch_format="pyarrow")
        .sort([("cnt"), ("pair")], descending=[True, False])
        .limit(k)
    )


SQL_BPE_MERGE_PAIRS = """
WITH words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
p AS (SELECT w[i] || ' ' || w[i+1] AS pair
      FROM words, UNNEST(generate_series(1, len(w)-1)) AS t(i)
      WHERE len(w) >= 2),
c AS (SELECT pair, CAST(COUNT(*) AS BIGINT) AS cnt FROM p GROUP BY pair)
SELECT pair, cnt FROM c ORDER BY cnt DESC, pair LIMIT 20
"""


def _pixel_key_table(ids: np.ndarray, keys: list, containers: list) -> pa.Table:
    """Shared (doc_id, pixel_key, container) builder for the
    image/video pixel-dedup twins — one output schema so the twins
    cannot drift (review)."""
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "pixel_key": pa.array(keys, type=pa.string()),
            "container": pa.array(containers, type=pa.int64()),
        }
    )


def _pixel_dup_merge(g: pd.DataFrame) -> pa.Table:
    """Shared per-bucket reducer for the pixel-dedup twins: keep-min
    doc, duplicate count, distinct-container count per pixel key."""
    agg = g.groupby("pixel_key").agg(
        doc_id=("doc_id", "min"),
        n_dups=("doc_id", "count"),
        n_containers=("container", "nunique"),
    )
    return pa.table(
        {
            "doc_id": pa.array(agg.doc_id.to_numpy(np.int64), type=pa.int64()),
            "n_dups": pa.array(agg.n_dups.to_numpy(np.int64), type=pa.int64()),
            "n_containers": pa.array(
                agg.n_containers.to_numpy(np.int64), type=pa.int64()
            ),
        }
    )


def q_image_pixel_dup_groups(sf_dir: str):
    """Cross-container image dedup on DECODED PIXELS — the multimodal
    dedup the payload layer needs: the same page encoded as PNG / GIF /
    BMP / LZW-TIFF / VP8L-WebP / RLE8-BMP must hash to ONE pixel group
    (md5 over dims+pixels), so a single wrong pixel in any of the six
    from-scratch codecs splits a group and flips the driver hash.
    Pages render from doc_id % 37 (guaranteed duplicate groups, pure
    integer oracle), container rotates doc_id % 6 over the LOSSLESS
    codecs (JPEG excluded by construction — its ±4-level ringing is
    bounded for text extraction but not pixel-exact).  Scale shape:
    synth+encode+decode+hash fuse in one map_batches (renders cached
    per key within a batch), then the exact-dedup bucket shuffle
    carries only (doc_id, 16-byte key, container) through ``tiered.by_key``."""
    import hashlib

    from rapidocr_ray.functions.codecs import (
        encode_bmp,
        encode_bmp_rle8,
        encode_gif,
        encode_png,
        encode_tiff,
    )
    from rapidocr_ray.functions.webp import encode_webp
    from rapidocr_ray.glyphs import render_page
    from rapidocr_ray.stages.multimodal import decode_image

    encoders = [
        encode_png,
        encode_gif,
        encode_bmp,
        lambda im: encode_tiff(im, compression="lzw", predictor=2),
        encode_webp,
        encode_bmp_rle8,
    ]

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth_hash(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        renders: dict = {}
        keys, containers = [], []
        for d in ids:
            d = int(d)
            gk = d % 37
            img = renders.get(gk)
            if img is None:
                img = renders[gk] = render_page([f"img group {gk}"], margin=12)
            container = d % 6
            payload = encoders[container](img)
            dec = decode_image(payload)
            keys.append(
                hashlib.md5(
                    dec.shape[0].to_bytes(4, "big")
                    + dec.shape[1].to_bytes(4, "big")
                    + dec.tobytes()
                ).hexdigest()
            )
            containers.append(container)
        return _pixel_key_table(ids, keys, containers)

    keyed = ds.map_batches(synth_hash, batch_format="pyarrow", batch_size=64)
    return by_key(keyed, "pixel_key", _pixel_dup_merge)


SQL_IMAGE_PIXEL_DUP_GROUPS = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_dups,
       CAST(COUNT(DISTINCT ((doc_id % 6) + 6) % 6) AS BIGINT) AS n_containers
FROM documents GROUP BY ((doc_id % 37) + 37) % 37
"""


def q_span_dedup_removal(sf_dir: str, width: int = 16):
    """Exact duplicated-span REMOVAL (the Lee-et-al. 'deduplicating
    training data' operator): every ``width``-char window occurring ≥2
    times corpus-wide (counting multiplicity, self-repeats included) is
    cut from EVERY document; the pin is the md5 of each doc's surviving
    text, so one wrong span boundary anywhere flips the hash.

    Scale shape: window occurrences explode to one row per char
    position, but ONE window-keyed ``tiered.by_key`` shuffle both counts and
    resolves duplicates (a window's occurrences all land in its bucket,
    so dup detection is a within-group size test — no separate dup-set
    broadcast), and the surviving (doc_id, pos) rows meet the text in a
    doc-keyed rebuild where the keep mask is a vectorized
    diff/cumsum.  The per-doc window slicing is oracle-pinned per-doc
    string work (the dedup.py to_pylist class); at 10^12 docs the
    published answer is a suffix array — this is the exact bucketed
    form of the same semantics.  Unicode-correct: masks apply to
    codepoints via utf-32 views, matching SQL substr char semantics."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def occurrences(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        # INTENTIONAL to_pylist: oracle-pinned per-doc window slicing
        texts = batch.column("text").to_pylist()
        out_d, out_i, out_w = [], [], []
        for d, t in zip(ids, texts):
            for i in range(len(t) - width + 1):
                out_d.append(d)
                out_i.append(i)
                out_w.append(t[i : i + width])
        return pa.table(
            {
                "doc_id": pa.array(out_d, type=pa.int64()),
                "i": pa.array(out_i, type=pa.int64()),
                "w": pa.array(out_w, type=pa.string()),
            }
        )

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("w")["w"].transform("size")
        d = g[cnt >= 2]
        return pd.DataFrame(
            {
                "doc_id": d.doc_id.to_numpy(np.int64),
                "i": d.i.to_numpy(np.int64),
            }
        )

    covers = by_key(
        ds.map_batches(occurrences, batch_format="pyarrow"), "w", dup_positions
    )

    # doc-keyed rebuild: positions (side 1) meet text (side 0)
    def text_side(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "i": pa.array(np.full(len(ids), -1), type=pa.int64()),
                "text": batch.column("text"),
                "side": pa.array(np.zeros(len(ids), dtype=np.int64), type=pa.int64()),
            }
        )

    def pos_side(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "i": batch.column("i"),
                "text": pa.array([None] * len(ids), type=pa.string()),
                "side": pa.array(np.ones(len(ids), dtype=np.int64), type=pa.int64()),
            }
        )

    both = [
        ds.map_batches(text_side, batch_format="pyarrow"),
        covers.map_batches(pos_side, batch_format="pyarrow"),
    ]

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        texts = g[g.side == 0]
        pos_by_doc = {
            int(k): v.to_numpy(np.int64)
            for k, v in g[g.side == 1].groupby("doc_id")["i"]
        }
        out_d, out_n, out_h = [], [], []
        for d, t in zip(texts.doc_id.to_numpy(np.int64), texts.text):
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            n = len(cp)
            pos = pos_by_doc.get(int(d))
            if pos is None:
                kept = t
            else:
                diff = np.zeros(n + 1, dtype=np.int64)
                np.add.at(diff, pos, 1)
                np.add.at(diff, np.minimum(pos + width, n), -1)
                mask = np.cumsum(diff[:-1]) == 0
                kept = cp[mask].tobytes().decode("utf-32-le")
            out_d.append(int(d))
            out_n.append(len(kept))
            out_h.append(hashlib.md5(kept.encode()).hexdigest())
        return pd.DataFrame(
            {
                "doc_id": np.array(out_d, dtype=np.int64),
                "n_kept_chars": np.array(out_n, dtype=np.int64),
                "kept_md5": out_h,
            }
        )

    return by_key(both, "doc_id", rebuild)


SQL_SPAN_DEDUP_REMOVAL = """
WITH docs AS (SELECT doc_id, text, length(text) AS n FROM documents),
pos AS (SELECT doc_id, text, n, i
        FROM docs, UNNEST(generate_series(1, n - 15)) AS t(i) WHERE n >= 16),
win AS (SELECT doc_id, i, substr(text, i, 16) AS w FROM pos),
dup AS (SELECT w FROM win GROUP BY w HAVING COUNT(*) >= 2),
cover AS (SELECT win.doc_id, win.i FROM win JOIN dup USING (w)),
chars AS (SELECT d.doc_id, p, substr(d.text, p, 1) AS ch
          FROM docs d, UNNEST(generate_series(1, d.n)) AS t(p)),
kept AS (SELECT c.doc_id, c.p, c.ch FROM chars c
         WHERE NOT EXISTS (SELECT 1 FROM cover v WHERE v.doc_id = c.doc_id
                           AND c.p BETWEEN v.i AND v.i + 15)),
agg AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_kept,
               md5(string_agg(ch, '' ORDER BY p)) AS kept_md5
        FROM kept GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.n_kept, 0) AS n_kept_chars,
       COALESCE(a.kept_md5, md5('')) AS kept_md5
FROM docs d LEFT JOIN agg a USING (doc_id)
"""


def q_video_pixel_dup_groups(sf_dir: str):
    """Cross-container VIDEO dedup on decoded frames (the image op's
    temporal twin): the same frame sequence as an RBMP stream, an
    AVI/MJPG-q100 file and an animated GIF must md5 to ONE group —
    frames are 8x8-block-constant so the q100 JPEG path round-trips
    bit-exactly (the avi_frame_stats invariant) and GIF/RBMP are
    lossless, so ANY decoder/demuxer divergence splits a group and
    flips the driver hash.  Content keys off doc_id % 23, container
    off doc_id % 3; the oracle is pure integer arithmetic.  Same scale
    shape as image_pixel_dup_groups: fused synth+mux+demux+hash
    map_batches, then the exact-dedup bucket shuffle."""
    import hashlib

    from rapidocr_ray import glyphs
    from rapidocr_ray.functions import avi as avi_mod
    from rapidocr_ray.functions import codecs as codecs_mod
    from rapidocr_ray.stages.multimodal import frame_scan_sample

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth_hash(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        tile = np.ones((8, 8), dtype=np.uint8)
        keys, containers = [], []
        for d in ids:
            d = int(d)
            gk = d % 23
            frames = []
            for f in range(2 + gk % 2):
                vals = np.array(
                    [(gk * 31 + f * 17 + t * 7) % 256 for t in range(6)],
                    dtype=np.uint8,
                ).reshape(2, 3)
                frames.append(np.kron(vals, tile))
            container = d % 3
            if container == 0:
                payload = b"".join(glyphs.encode_rbmp(fr) for fr in frames)
            elif container == 1:
                payload = avi_mod.encode_avi_mjpeg(frames, quality=100)
            else:
                payload = codecs_mod.encode_gif_animation(frames)
            n, sampled = frame_scan_sample(payload, every_k=1)
            h = hashlib.md5(n.to_bytes(4, "big"))
            for fr in sampled:
                h.update(fr.shape[0].to_bytes(4, "big"))
                h.update(fr.shape[1].to_bytes(4, "big"))
                h.update(fr.tobytes())
            keys.append(h.hexdigest())
            containers.append(container)
        return _pixel_key_table(ids, keys, containers)

    keyed = ds.map_batches(synth_hash, batch_format="pyarrow", batch_size=64)
    return by_key(keyed, "pixel_key", _pixel_dup_merge)


SQL_VIDEO_PIXEL_DUP_GROUPS = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_dups,
       CAST(COUNT(DISTINCT ((doc_id % 3) + 3) % 3) AS BIGINT) AS n_containers
FROM documents GROUP BY ((doc_id % 23) + 23) % 23
"""


def q_orders_left_outer_agg(sf_dir: str):
    """LEFT OUTER join aggregate, both sides large (every order with
    its lineitem count + quantity sum, ZERO rows included — the join
    family's last member next to inner / anti / semi / range / as-of).
    Scale shape: the fact side collapses to per-task (orderkey, cnt,
    qty) partials BEFORE the shuffle (never raw rows), then the same
    ``tiered.by_key`` union the anti-join uses and a per-bucket vectorized
    reindex-with-zero-fill — the outer semantics cost nothing extra."""
    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    lineitem = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def order_side(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("o_orderkey"), dtype=np.int64)
        z = np.zeros(len(keys), dtype=np.int64)
        return pa.table(
            {
                "orderkey": pa.array(keys, type=pa.int64()),
                "cnt": pa.array(z, type=pa.int64()),
                "qty": pa.array(z, type=pa.int64()),
                "side": pa.array(np.zeros(len(keys), dtype=np.int8)),
            }
        )

    def line_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "orderkey": batch.column("l_orderkey"),
                "one": np.ones(len(batch), dtype=np.int64),
                # floor() on BOTH sides: numpy astype truncates while
                # DuckDB CAST rounds — pin one convention (review)
                "q": np.floor(np.asarray(batch.column("l_quantity"))).astype(
                    np.int64
                ),
            }
        ).group_by(["orderkey"]).aggregate([("one", "sum"), ("q", "sum")])
        keys = np.asarray(t.column("orderkey"), dtype=np.int64)
        return pa.table(
            {
                "orderkey": pa.array(keys, type=pa.int64()),
                "cnt": t.column("one_sum"),
                "qty": t.column("q_sum"),
                "side": pa.array(np.ones(len(keys), dtype=np.int8)),
            }
        )

    both = [
        orders.map_batches(order_side, batch_format="pyarrow"),
        lineitem.map_batches(line_partial, batch_format="pyarrow"),
    ]

    def left_merge(g: pd.DataFrame) -> pa.Table:
        left = g[g.side == 0]
        facts = g[g.side == 1].groupby("orderkey")[["cnt", "qty"]].sum()
        keys = left.orderkey.to_numpy(np.int64)
        got = facts.reindex(keys, fill_value=0)
        return pa.table(
            {
                "o_orderkey": pa.array(keys, type=pa.int64()),
                "n_lines": pa.array(got.cnt.to_numpy(np.int64), type=pa.int64()),
                "sum_qty": pa.array(got.qty.to_numpy(np.int64), type=pa.int64()),
            }
        )

    return by_key(both, "orderkey", left_merge)


SQL_ORDERS_LEFT_OUTER_AGG = """
SELECT o.o_orderkey,
       CAST(COUNT(l.l_orderkey) AS BIGINT) AS n_lines,
       CAST(COALESCE(SUM(CAST(floor(l.l_quantity) AS BIGINT)), 0) AS BIGINT) AS sum_qty
FROM orders o LEFT JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderkey
"""


def q_lang_percentile_rank(sf_dir: str):
    """Per-group dense rank at scale (the rank-normalization step a
    curation pipeline runs before per-lang thresholding): rank of
    n_chars within each lang (ties by doc_id), = ROW_NUMBER() OVER
    (PARTITION BY lang ORDER BY n_chars, doc_id) − 1 — WITHOUT a
    per-group global sort.  n_chars is a bounded integer, so the
    exact (lang, n_chars) count histogram fits the driver (the
    length_quantiles argument); exclusive cumulative counts per lang
    give each (lang, n_chars) group its base offset, broadcast once
    (ray.put + ``broadcast_get``); ONE shuffle keyed by (lang, n_chars) and a
    vectorized in-group doc_id sort finish the rank.  A giant lang is
    fine: its docs spread over #distinct-lengths groups, not one task."""
    import ray

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def hist_partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["lang", "n_chars"]).group_by(["lang", "n_chars"]).aggregate(
            [("n_chars", "count")]
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("n_chars_count"), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["lang", "n_chars"])
        .sum("cnt")
        .take_all()
    )  # bounded: #langs × #distinct lengths
    if not rows:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "lang": pa.array([], type=pa.string()),
                "rank": pa.array([], type=pa.int64()),
            }
        )
    hist = pd.DataFrame(rows).sort_values(["lang", "n_chars"])
    cum = hist.groupby("lang")["sum(cnt)"].cumsum() - hist["sum(cnt)"]
    base = {
        (l, int(n)): int(c)
        for l, n, c in zip(hist.lang, hist.n_chars, cum)
    }
    base_ref = ray.put(base)

    def rank_group(g: pd.DataFrame) -> pa.Table:
        b = broadcast_get(base_ref)
        gg = g.sort_values("doc_id", kind="mergesort")
        start = b[(gg.lang.iloc[0], int(gg.n_chars.iloc[0]))]
        return pa.table(
            {
                "doc_id": pa.array(gg.doc_id.to_numpy(np.int64), type=pa.int64()),
                "lang": pa.array(gg.lang, type=pa.string()),
                "rank": pa.array(
                    start + np.arange(len(gg), dtype=np.int64), type=pa.int64()
                ),
            }
        )

    return ds.groupby(["lang", "n_chars"]).map_groups(
        rank_group, batch_format="pandas"
    )


SQL_LANG_PERCENTILE_RANK = """
SELECT doc_id, lang,
       CAST(ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n_chars, doc_id) - 1
            AS BIGINT) AS rank
FROM documents
"""


def _dsir_count_partial(batch: pa.Table) -> pa.Table:
    """Per-batch (key, c_all, c_tgt): corpus and target-domain counts."""
    flat, lens = _split(batch)
    is_tgt = np.repeat(np.asarray(batch["doc_id"], dtype=np.int64) % 3 == 0, lens)
    agg = (
        pa.table(
            {
                "key": flat,
                "c_all": np.ones(len(flat), dtype=np.int64),
                "c_tgt": is_tgt.astype(np.int64),
            }
        )
        .group_by("key")
        .aggregate([("c_all", "sum"), ("c_tgt", "sum")])
    )
    return pa.table(
        {"key": agg["key"], "c_all": agg["c_all_sum"], "c_tgt": agg["c_tgt_sum"]}
    )


def _dsir_totals(rows: pa.Table) -> pd.Series:
    return pd.Series(
        {
            "v": rows.num_rows,
            "n_all": pc.sum(rows["c_all"]).as_py(),
            "n_tgt": pc.sum(rows["c_tgt"]).as_py(),
        }
    )


def _dsir_lp(rows: pa.Table, tot: pd.Series) -> np.ndarray:
    v = float(tot["v"])
    c_all = np.asarray(rows["c_all"], dtype=np.float64)
    c_tgt = np.asarray(rows["c_tgt"], dtype=np.float64)
    return (
        _log10_micro((c_tgt + 1.0) / (float(tot["n_tgt"]) + v))
        - _log10_micro((c_all + 1.0) / (float(tot["n_all"]) + v))
    )[:, None]


def q_dsir_weights(sf_dir: str):
    """DSIR-style importance weights (data selection for language
    models): per-doc log importance = Σ_tokens [log p_target(t) −
    log p_raw(t)] with add-one smoothing, target = the docs with
    doc_id % 3 == 0 (deterministic domain stand-in).  ONE fused count
    pass produces BOTH distributions (per-batch Table.group_by partials
    carrying c_all and c_tgt, one token-keyed `tiered.count_table` merge — the
    unigram_logprob shape).  Float pin: each side is
    floor(log10((c+1)/(N+V))*1e6) int64 (the libm-bit-identity
    protocol), the doc score an integer SUM.  Scoring is
    `tiered.keyed_sum`, so past `tiered.BROADCAST_LIMIT` vocab rows the
    same token-bucketed attach-shuffle tier as unigram_logprob applies."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return keyed_sum(
        ds,
        _token_keys,
        count_table(ds, _dsir_count_partial),
        _dsir_lp,
        _doc_sum_columns("n_tokens", "dsir_micro_sum"),
        totals=_dsir_totals,
    )


SQL_DSIR_WEIGHTS = """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t,
                    CAST(doc_id % 3 = 0 AS BIGINT) AS is_tgt
             FROM documents),
cnt AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS c_all,
               CAST(SUM(is_tgt) AS BIGINT) AS c_tgt FROM tok GROUP BY t),
tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v,
               CAST(SUM(c_all) AS DOUBLE) AS n_all,
               CAST(SUM(c_tgt) AS DOUBLE) AS n_tgt FROM cnt),
d AS (SELECT t,
      CAST(floor(log10((CAST(c_tgt AS DOUBLE)+1.0)/(n_tgt+v))*1000000) AS BIGINT)
      - CAST(floor(log10((CAST(c_all AS DOUBLE)+1.0)/(n_all+v))*1000000) AS BIGINT)
        AS delta
      FROM cnt, tot)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(delta) AS BIGINT) AS dsir_micro_sum
FROM tok JOIN d USING (t) GROUP BY doc_id
"""


def q_epoch_shuffle(sf_dir: str, cell_bits: int = 16):
    """Deterministic epoch shuffle — the pretraining loader's global
    training order: position = dense rank of a multiplicative doc_id
    hash (ROW_NUMBER over (hash, doc_id)) WITHOUT a global sort.
    Pass 1 counts docs per hash cell (h >> (32-cell_bits); ≤ 2^cell_bits
    cells regardless of corpus size) into driver-side exclusive base
    offsets; pass 2 is ONE bounded shuffle keyed by cell with a
    vectorized in-cell sort — position = base[cell] + local index.
    The base array (2^cell_bits × 8 B) broadcasts once via ray.put +
    ``broadcast_get``.  Hash pin: (doc_id · 2654435761) mod 2^32 — uint64
    wraparound then mod 2^32 equals the oracle's HUGEINT arithmetic
    exactly because 2^32 divides 2^64.  At 10^12 docs raise cell_bits
    so cells stay ~1M rows (the knob trades base-array size for
    per-cell sort memory)."""
    import ray

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    mult = np.uint64(2654435761)
    shift = 32 - cell_bits

    def with_cell(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        h = ((ids * mult) % np.uint64(1 << 32)).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "h": pa.array(h, type=pa.int64()),
                "cell": pa.array(h >> shift, type=pa.int64()),
            }
        )

    keyed = ds.map_batches(with_cell, batch_format="pyarrow").materialize()

    def cell_counts(batch: pa.Table) -> pa.Table:
        g = pa.table({"cell": batch.column("cell")}).group_by(["cell"]).aggregate(
            [("cell", "count")]
        )
        return pa.table(
            {
                "cell": g.column("cell"),
                "cnt": pc.cast(g.column("cell_count"), pa.int64()),
            }
        )

    rows = (
        keyed.map_batches(cell_counts, batch_format="pyarrow")
        .groupby("cell")
        .sum("cnt")
        .take_all()
    )  # ≤ 2^cell_bits rows on the driver
    if not rows:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "position": pa.array([], type=pa.int64()),
            }
        )
    base = np.zeros(1 << cell_bits, dtype=np.int64)
    for r in rows:
        base[r["cell"]] = r["sum(cnt)"]
    base = np.concatenate([[0], np.cumsum(base)[:-1]])
    base_ref = ray.put(base)

    def rank_cell(g: pd.DataFrame) -> pa.Table:
        b = broadcast_get(base_ref)
        gg = g.sort_values(["h", "doc_id"], kind="mergesort")
        start = int(b[int(gg.cell.iloc[0])])
        return pa.table(
            {
                "doc_id": pa.array(gg.doc_id.to_numpy(np.int64), type=pa.int64()),
                "position": pa.array(
                    start + np.arange(len(gg), dtype=np.int64), type=pa.int64()
                ),
            }
        )

    return keyed.groupby("cell").map_groups(rank_cell, batch_format="pandas")


SQL_EPOCH_SHUFFLE = """
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (
           ORDER BY ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                     + 4294967296) % 4294967296, doc_id
       ) - 1 AS BIGINT) AS position
FROM documents
"""


def _lang_token_partial(batch: pa.Table) -> pa.Table:
    """Per-batch (lang, token) count partial — zipf_slope's count
    pass."""
    toks = pc.split_pattern(batch.column("text"), " ")
    lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    langs = np.repeat(np.asarray(batch.column("lang"), dtype=object), lens)
    flat = pc.list_flatten(toks)
    t = pa.table(
        {
            "lang": pa.array(langs, type=pa.string()),
            "token": flat,
            "n": np.ones(len(flat), dtype=np.int64),
        }
    )
    agg = t.group_by(["lang", "token"]).aggregate([("n", "sum")])
    return pa.table(
        {
            "lang": agg.column("lang"),
            "token": agg.column("token"),
            "n": agg.column("n_sum"),
        }
    )


def q_temperature_resample(sf_dir: str):
    """Multilingual temperature resampling (the XLM-R/mT5 alpha-smoothed
    rebalance): per-lang sampling mass q_l proportional to n_l^0.5, and a
    deterministic per-doc keep decision at rate r_l = q_l * N / n_l (capped
    at 1).  alpha is fixed at 0.5 because sqrt is IEEE-754 correctly
    rounded — the ONE temperature whose weights are bit-identical across
    numpy and DuckDB without a fuzz pin (libm pow is not).

    Determinism pins (all integer once past sqrt): w_micro = floor(sqrt(n)
    *1e6); p_micro = w_micro*1e6 // sum(w_micro) (int64 sums — order-free);
    rate_micro = min(1e6, p_micro*N // n_l); keep iff the multiplicative
    doc_id hash % 1e6 < rate_micro (the stratified_sample hash — matches
    SQL for doc_id < 2^31; 2^32 % 1e6 != 0 gives < 0.03% rate skew, fine
    for a sampler, irrelevant to determinism).

    Scale shape: pass 1 is per-batch lang partials merged by a bounded
    categorical groupby (lang count rows, never the corpus) collected
    driver-side only at n_langs size; pass 2 re-streams the 2-column
    projection with the tiny rate dict captured by value — no shuffle at
    all on the wide pass."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        agg = (
            pa.table({"lang": batch.column("lang")})
            .group_by(["lang"])
            .aggregate([("lang", "count")])
        )
        # by-name access: positional rename assumes keys-first aggregate
        # output, which has differed across pyarrow majors
        return pa.table({"lang": agg.column("lang"), "n": agg.column("lang_count")})

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("lang", sort=False)["n"].sum()
        return pd.DataFrame({"lang": g.index, "n": g.to_numpy().astype(np.int64)})

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()  # n_langs rows — bounded categorical, not the corpus
    )
    n_by_lang = dict(zip(counts.lang, counts.n.astype(np.int64)))
    total_n = int(sum(n_by_lang.values()))
    # Python ints: exact and overflow-free at any corpus size
    w_micro = {L: int(np.floor(np.sqrt(float(n)) * 1e6)) for L, n in n_by_lang.items()}
    tot_w = sum(w_micro.values()) or 1
    rate_micro = {
        L: min(
            1_000_000,
            (w_micro[L] * 1_000_000 // tot_w) * total_n // int(n_by_lang[L]),
        )
        for L in n_by_lang
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        hv = ((ids * np.uint64(2654435761)) % np.uint64(2**32)) % np.uint64(1_000_000)
        rates = (
            pd.Series(np.asarray(batch.column("lang"), dtype=object))
            .map(rate_micro)
            .to_numpy(dtype=np.int64)
        )
        mask = hv.astype(np.int64) < rates
        return pa.table(
            {
                "doc_id": pa.array(
                    np.asarray(batch.column("doc_id"))[mask], type=pa.int64()
                ),
                "lang": pa.array(
                    np.asarray(batch.column("lang"), dtype=object)[mask],
                    type=pa.string(),
                ),
                "rate_micro": pa.array(rates[mask], type=pa.int64()),
            }
        )

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_TEMPERATURE_RESAMPLE = """
WITH c AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY lang),
w AS (SELECT lang, n,
             CAST(floor(sqrt(CAST(n AS DOUBLE)) * 1000000) AS HUGEINT) AS w_micro
      FROM c),
t AS (SELECT CAST(SUM(w_micro) AS HUGEINT) AS tot_w,
             CAST(SUM(n) AS BIGINT) AS total_n FROM w),
r AS (SELECT lang,
             LEAST(1000000,
                   ((w_micro * 1000000 // tot_w) * total_n) // n) AS rate_micro
      FROM w, t)
SELECT d.doc_id, d.lang, CAST(r.rate_micro AS BIGINT) AS rate_micro
FROM documents d JOIN r USING (lang)
WHERE (((CAST(d.doc_id AS HUGEINT) * 2654435761) % 4294967296
        + 4294967296) % 4294967296) % 1000000 < r.rate_micro
"""


_ZIPF_K = 100


def q_zipf_slope(sf_dir: str, k: int = _ZIPF_K):
    """Per-language Zipf exponent: OLS slope of log10(count) on
    log10(rank) over the top-k vocabulary (count desc, token asc rank
    order) — the corpus-health statistic a crawl curation run charts per
    snapshot (natural text ~ -1; boilerplate/spam floods flatten it).

    Determinism pins: logs quantized to MILLI ints (floor(log10(v)*1e3)
    — log10 of integer-valued doubles is the already-fuzz-pinned kernel),
    then slope_micro = -((Sx*Sy - kk*Sxy) * 1e6 // (kk*Sxx - Sx*Sx)) in
    exact integer arithmetic: milli scale keeps kk*Sxy under ~1e11 and the
    *1e6 product under int64 even at a 1e12-token corpus (Python ints
    driver-side are unbounded anyway; the SQL side runs in HUGEINT).  The
    rank order makes y non-increasing in x, so the numerator is always
    >= 0 and // floor == truncate on both engines; a degenerate lang
    (all-equal x) pins slope to 0.

    Scale shape: the vocabulary explosion stays inside scan tasks
    (per-batch (lang,token) partials), merges through ONE ``tiered.by_key``
    shuffle on the token with per-bucket per-lang top-k pruning (the
    top_terms shape — <= N_BUCKETS * n_langs * k rows come back), and only
    n_langs * k rows reach the driver for the exact-int OLS."""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    part = ds.map_batches(_lang_token_partial, batch_format="pyarrow")

    def merge_prune(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["lang", "token"], as_index=False)["n"].sum()
        # token -> one bucket, so per-bucket counts are global-exact and
        # the global top-k per lang is a subset of per-bucket top-k
        out = out.sort_values(
            ["n", "token"], ascending=[False, True], kind="mergesort"
        )
        return out.groupby("lang", sort=False).head(k)

    # <= N_BUCKETS * n_langs * k rows
    cand = by_key(part, "token", merge_prune).to_pandas()
    rows = []
    if len(cand):
        cand = cand.sort_values(
            ["n", "token"], ascending=[False, True], kind="mergesort"
        )
        for lang, g in cand.groupby("lang", sort=True):
            g = g.head(k)
            kk = len(g)
            ranks = np.arange(1, kk + 1, dtype=np.float64)
            x = [int(v) for v in np.floor(np.log10(ranks) * 1e3).astype(np.int64)]
            y = [
                int(v)
                for v in np.floor(
                    np.log10(g.n.to_numpy().astype(np.float64)) * 1e3
                ).astype(np.int64)
            ]
            sx, sy = sum(x), sum(y)
            sxy = sum(a * b for a, b in zip(x, y))
            sxx = sum(a * a for a in x)
            den = kk * sxx - sx * sx
            num = sx * sy - kk * sxy  # >= 0: y non-increasing in x
            slope_micro = -((num * 1_000_000) // den) if den > 0 else 0
            rows.append((lang, kk, slope_micro))
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows], type=pa.string()),
            "n_terms": pa.array([r[1] for r in rows], type=pa.int64()),
            "zipf_slope_micro": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )


SQL_ZIPF_SLOPE = f"""
WITH tok AS (SELECT lang, unnest(string_split(text, ' ')) AS t FROM documents),
cnt AS (SELECT lang, t, COUNT(*) AS c FROM tok GROUP BY lang, t),
r AS (SELECT lang, t, c,
             ROW_NUMBER() OVER (PARTITION BY lang ORDER BY c DESC, t ASC) AS rn
      FROM cnt),
q AS (SELECT lang,
             CAST(floor(log10(CAST(rn AS DOUBLE)) * 1000) AS HUGEINT) AS x,
             CAST(floor(log10(CAST(c AS DOUBLE)) * 1000) AS HUGEINT) AS y
      FROM r WHERE rn <= {_ZIPF_K}),
s AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS kk,
             SUM(x) AS sx, SUM(y) AS sy,
             SUM(x * y) AS sxy, SUM(x * x) AS sxx
      FROM q GROUP BY lang)
SELECT lang, CAST(kk AS BIGINT) AS n_terms,
       CAST(CASE WHEN kk * sxx - sx * sx > 0
                 THEN -(((sx * sy - kk * sxy) * 1000000) // (kk * sxx - sx * sx))
                 ELSE 0 END AS BIGINT) AS zipf_slope_micro
FROM s
"""


def q_soft_dedup_weights(sf_dir: str):
    """SoftDeDup: instead of dropping exact duplicates, down-weight each
    document by its duplicate-cluster size (weight_micro = 1e6 //
    cluster_size) so the training sampler sees each CONTENT once in
    expectation — the soft alternative every modern data mix uses when
    hard dedup is too lossy.

    Scale shape: content never shuffles — each scan task md5s its rows
    and ships (doc_id, key) only; ONE ``tiered.by_key`` shuffle (a key lives
    in one bucket) computes exact cluster sizes and emits every member
    with its weight.  md5 is the SQL-shared key (DuckDB md5(text)), so
    the oracle is a pure window COUNT."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def key(batch: pa.Table) -> pa.Table:
        # per-doc md5 of the raw text (oracle-pinned: DuckDB md5());
        # per-doc string hashing is inherently per-row work
        keys = [
            hashlib.md5(s.encode()).hexdigest()
            for s in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "key": pa.array(keys, type=pa.string()),
            }
        )

    keyed = ds.map_batches(key, batch_format="pyarrow")

    def weights(group: pd.DataFrame) -> pd.DataFrame:
        sizes = group.groupby("key")["doc_id"].transform("size").to_numpy()
        return pd.DataFrame(
            {
                "doc_id": group.doc_id.to_numpy().astype(np.int64),
                "n_dups": sizes.astype(np.int64),
                "weight_micro": (1_000_000 // sizes).astype(np.int64),
            }
        )

    return by_key(keyed, "key", weights)


SQL_SOFT_DEDUP_WEIGHTS = """
SELECT doc_id,
       CAST(COUNT(*) OVER (PARTITION BY md5(text)) AS BIGINT) AS n_dups,
       CAST(1000000 // COUNT(*) OVER (PARTITION BY md5(text)) AS BIGINT)
           AS weight_micro
FROM documents
"""


def _nb_count_partial(batch: pa.Table) -> pa.Table:
    """Per-batch (key, lang, n, f): token counts per lang, and how many
    docs of that lang START with the token.  Every doc has exactly one
    first token, so the f sums per lang are the per-lang doc counts."""
    flat, lens = _split(batch)
    first = np.zeros(len(flat), dtype=np.int64)
    first[(np.cumsum(lens) - lens)[lens > 0]] = 1
    langs = np.repeat(np.asarray(batch["lang"], dtype=object), lens)
    agg = (
        pa.table(
            {
                "key": flat,
                "lang": pa.array(langs, type=pa.string()),
                "n": np.ones(len(flat), dtype=np.int64),
                "f": first,
            }
        )
        .group_by(["key", "lang"])
        .aggregate([("n", "sum"), ("f", "sum")])
    )
    return pa.table(
        {"key": agg["key"], "lang": agg["lang"], "n": agg["n_sum"], "f": agg["f_sum"]}
    )


def _nb_count_merge(group: pa.Table) -> pa.Table:
    """One row per token: aligned per-lang lists (lang, n, f)."""
    g = group.group_by(["key", "lang"]).aggregate([("n", "sum"), ("f", "sum")])
    # single-threaded so the three lists keep one row order
    g = g.group_by("key", use_threads=False).aggregate(
        [("lang", "list"), ("n_sum", "list"), ("f_sum", "list")]
    )
    return pa.table(
        {
            "key": g["key"],
            "lang": g["lang_list"],
            "n": g["n_sum_list"],
            "f": g["f_sum_list"],
        }
    )


def _nb_totals(rows: pa.Table) -> pd.Series:
    """Per-lang token totals n and doc counts f, and the vocabulary
    size v."""
    g = (
        pa.table(
            {
                "lang": pc.list_flatten(rows["lang"]),
                "n": pc.list_flatten(rows["n"]),
                "f": pc.list_flatten(rows["f"]),
            }
        )
        .group_by("lang")
        .aggregate([("n", "sum"), ("f", "sum")])
    )
    langs = g["lang"].to_pylist()
    return pd.concat(
        {
            "n": pd.Series(g["n_sum"].to_numpy(), index=langs),
            "f": pd.Series(g["f_sum"].to_numpy(), index=langs),
            "v": pd.Series([rows.num_rows], index=[""]),
        }
    )


def _nb_lp(rows: pa.Table, tot: pd.Series) -> np.ndarray:
    """Dense (rows x langs) lp grid, langs ASC: floor(log10((c_lt + 1) /
    (n_l + V))*1e6); a (lang, token) cell never observed has c = 0."""
    langs = sorted(tot["f"].index)
    denom = tot["n"].reindex(langs).to_numpy(np.float64) + float(tot["v"].iloc[0])
    lp = np.tile(_log10_micro(1.0 / denom), (rows.num_rows, 1))
    r = np.repeat(
        np.arange(rows.num_rows), pc.list_value_length(rows["lang"]).to_numpy()
    )
    j = pc.index_in(pc.list_flatten(rows["lang"]), value_set=pa.array(langs))
    j = j.to_numpy()
    c = pc.list_flatten(rows["n"]).to_numpy().astype(np.float64)
    lp[r, j] = _log10_micro((c + 1.0) / denom[j])
    return lp


def _nb_finish(docs: pa.Table, n, sums, tot) -> pa.Table:
    """Add the log prior floor(log10(d_l/D)*1e6) and take the argmax;
    the first max is the lang-ASC tie-break."""
    langs = sorted(tot["f"].index)
    d = tot["f"].reindex(langs).to_numpy(np.float64)
    scores = sums + _log10_micro(d / d.sum())[None, :]
    best = np.argmax(scores, axis=1)
    return pa.table(
        {
            "doc_id": docs["doc_id"],
            "lang": docs["lang"],
            "nb_pred": pa.array(
                np.asarray(langs, dtype=object)[best], type=pa.string()
            ),
            "nb_score_micro": pa.array(
                scores[np.arange(len(best)), best], type=pa.int64()
            ),
        }
    )


def q_nb_classify(sf_dir: str):
    """Distributed multinomial Naive Bayes, trained AND applied in one
    pipeline (the quality-classifier shape: CCNet/GPT-3 train a linear
    model on corpus counts, then score every doc with it).  Label =
    lang; features = whitespace tokens; Laplace +1 smoothing.

    Training is pure aggregation — per-(lang, token) counts, per-lang
    token totals, the global vocabulary size, per-lang doc priors — so
    the 'model fit' is exactly SQL-expressible and the whole op is
    hash-checkable, unlike gradient training.  Scoring: score_l(doc) =
    log10(d_l/D) + sum_t log10((c_lt + 1)/(n_l + V)); prediction =
    argmax_l with lang-ASC tie-break.

    Determinism pins: every log is quantized floor(log10(q)*1e6) int64
    (the fuzz-pinned kernel — q is an IEEE-exact int/int quotient on
    both engines), per-doc sums are int64, and the argmax compares
    integers with an explicit lexicographic tie-break.  Because the
    grid is dense over the CORPUS vocabulary, a scored token is never
    out-of-vocabulary (it appeared somewhere), so there is no unseen
    branch to diverge on.

    Scale shape: token explosion stays in scan tasks; counts merge
    through ONE token-bucketed shuffle into one row per token (lang is
    a bounded categorical, so the per-token lang lists are narrow).
    Scoring is `tiered.keyed_sum` with k = L: the dense (V x L) grid
    broadcasts once, or past `tiered.BROADCAST_LIMIT` tokens its rows
    are built per bucket and attached through `tiered.by_key` on the
    token; the lang column rides the all-docs side table of the doc-keyed
    merge."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return keyed_sum(
        ds,
        _token_keys,
        count_table(ds, _nb_count_partial, _nb_count_merge),
        _nb_lp,
        _nb_finish,
        totals=_nb_totals,
        carry=("lang",),
    )


def q_audio_sample_dup_groups(sf_dir: str):
    """Cross-codec AUDIO dedup on DECODED SAMPLES — completes the
    image/video/audio dedup trio: the same 8-bit-quantized signal
    written as 8-bit PCM, 16-bit PCM, 32-bit PCM, IEEE float32, and
    duplicated-channel stereo 16-bit PCM must md5 to ONE sample group.
    The widths are chosen so every decode path is IEEE-exact (s8/128
    reachable losslessly from all five: integer shifts are powers of
    two, the stereo downmix averages two equal floats), so any decoder
    divergence — scaling, sign, interleave, word alignment — splits a
    group and flips the driver hash.  Signal keys off doc_id % 29,
    container off doc_id % 5; the oracle is pure integer arithmetic.
    Scale shape: synth+encode+decode+hash fuse in one map_batches, then
    the exact-dedup bucket shuffle carries only (doc_id, key,
    container)."""
    import hashlib

    from rapidocr_ray.functions.codecs import decode_wav, encode_wav_pcm

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth_hash(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        keys, containers = [], []
        for d in ids:
            d = int(d)
            gk = d % 29
            n = 40 + gk % 3
            s8 = ((gk * 37 + np.arange(n, dtype=np.int64) * 11) % 256) - 128
            container = d % 5
            if container == 0:
                payload = encode_wav_pcm((s8 + 128).astype(np.uint8), "u8")
            elif container == 1:
                payload = encode_wav_pcm((s8 * 256).astype("<i2"), "i16")
            elif container == 2:
                payload = encode_wav_pcm((s8 * 256 * 65536).astype("<i4"), "i32")
            elif container == 3:
                payload = encode_wav_pcm(
                    (s8.astype(np.float64) / 128.0).astype("<f4"), "f32"
                )
            else:  # duplicated-channel stereo: downmix mean is exact
                st = np.repeat((s8 * 256).astype("<i2"), 2)
                payload = encode_wav_pcm(st, "i16", n_channels=2)
            x, rate, _ = decode_wav(payload)
            h = hashlib.md5(
                len(x).to_bytes(4, "big") + rate.to_bytes(4, "big") + x.tobytes()
            )
            keys.append(h.hexdigest())
            containers.append(container)
        return _pixel_key_table(ids, keys, containers)

    keyed = ds.map_batches(synth_hash, batch_format="pyarrow", batch_size=64)
    return by_key(keyed, "pixel_key", _pixel_dup_merge)


SQL_AUDIO_SAMPLE_DUP_GROUPS = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_dups,
       CAST(COUNT(DISTINCT ((doc_id % 5) + 5) % 5) AS BIGINT) AS n_containers
FROM documents GROUP BY ((doc_id % 29) + 29) % 29
"""


def _tdiv(s: int, n: int) -> int:
    """Truncate-toward-zero integer division (DuckDB's `//` on signed
    values, verified: -7 // 2 = -3) — Python's // floors, so negative
    centroid sums would diverge without this."""
    q = abs(s) // n
    return q if s >= 0 else -q


def _kmeans_quant(batch: pa.Table, scale: int, dim: int) -> np.ndarray:
    """Embedding column -> int64 micros [rows, dim]; an empty batch
    gives (0, dim) (stack_list_column returns (0, 0) for it)."""
    if batch.num_rows == 0:
        return np.zeros((0, dim), dtype=np.int64)
    # stack_list_column imported at module top: a function-local
    # `from rapidocr_ray...` import inside a WORKER closure breaks
    # under by-value module shipping (the verify-skill gotcha)
    return np.floor(
        stack_list_column(batch.column("embedding"), dtype=np.float64) * scale
    ).astype(np.int64)


def _kmeans_assign(emb: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid (exact int64 L2, lowest id on ties) and its
    distance per row; empty for zero rows."""
    if len(emb) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    dists = np.empty((len(emb), len(c)), dtype=np.int64)
    for j in range(len(c)):
        d = emb - c[j]
        dists[:, j] = np.einsum("ij,ij->i", d, d)
    best = np.argmin(dists, axis=1)  # first min = lowest-id tiebreak
    return best, dists[np.arange(len(emb)), best]


def q_kmeans_int_iters(sf_dir: str, k: int = 4, n_iter: int = 3, scale: int = 1_000_000):
    """Distributed Lloyd's k-means, bit-pinned end to end — the
    iterative ML-training sibling of bpe_train_merges: embeddings
    quantize to int64 micros (floor(float64(x)*1e6) — float32→double
    is exact, so both engines see identical ints), distances are exact
    int64 L2 sums, assignment ties break to the lowest cluster id, and
    the centroid update is TRUNCATING integer mean (DuckDB `//`
    semantics, mirrored by _tdiv) with empty clusters keeping their
    previous centroid.  Seeds = the k smallest vec_ids' vectors.
    Output = the third assignment pass (vec_id, cluster, dist) — its
    hash covers every distance, argmin and update of the full loop.

    Scale shape: the canonical distributed k-means — per-batch
    assignment + per-cluster (count, dim-sum) partials inside the scan
    task (centroids broadcast by value: k x dim ints), driver reduces
    k x n_blocks partial rows per round; the corpus never shuffles."""
    ids, mat = _load_queries(sf_dir, n=k)
    cent = np.floor(mat * scale).astype(np.int64)  # (k, dim)
    # read once: every round and the final pass scan the same blocks
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]).materialize()
    dim = cent.shape[1]

    for _ in range(n_iter - 1):
        c_now = cent.copy()

        def partials(batch: pa.Table, _c=c_now) -> pa.Table:
            emb = _kmeans_quant(batch, scale, dim)
            best, _ = _kmeans_assign(emb, _c)
            rows = []
            for j in range(len(_c)):
                sel = emb[best == j]
                rows.append((j, len(sel), sel.sum(axis=0, dtype=np.int64)))
            return pa.table(
                {
                    "cl": pa.array([r[0] for r in rows], type=pa.int64()),
                    "n": pa.array([r[1] for r in rows], type=pa.int64()),
                    "s": pa.array(
                        [r[2].tolist() for r in rows], type=pa.list_(pa.int64())
                    ),
                }
            )

        pdf = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
        new = cent.copy()
        for j in range(k):
            sub = pdf[pdf.cl == j]
            n = int(sub.n.sum())
            if n == 0:
                continue  # empty cluster keeps its previous centroid
            sums = np.sum(np.stack(sub.s.to_numpy()), axis=0)
            # Python ints: exact at any corpus size; trunc-div pin
            new[j] = [_tdiv(int(s), n) for s in sums]
        cent = new

    c_final = cent

    def final_assign(batch: pa.Table) -> pa.Table:
        emb = _kmeans_quant(batch, scale, dim)
        best, dist = _kmeans_assign(emb, c_final)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cluster": pa.array(best.astype(np.int64), type=pa.int64()),
                "dist": pa.array(dist, type=pa.int64()),
            }
        )

    return ds.map_batches(final_assign, batch_format="pyarrow")


def _kmeans_sql(k: int = 4, n_iter: int = 3) -> str:
    """Unrolled-iteration DuckDB oracle for q_kmeans_int_iters: same
    int64 quantization, exact L2, (dist, cl) argmin, truncating `//`
    centroid mean, COALESCE empty-cluster carry."""
    parts = [
        "WITH q AS (SELECT vec_id, i,\n"
        "                  CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000000)\n"
        "                       AS BIGINT) AS v\n"
        "           FROM embeddings,\n"
        "                UNNEST(generate_series(1, len(embedding))) AS g(i)),\n"
        f"seeds AS (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cl\n"
        f"          FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})),\n"
        "c0 AS (SELECT s.cl, q.i, q.v AS c FROM seeds s JOIN q USING (vec_id))"
    ]
    for r in range(1, n_iter):
        parts.append(
            f"a{r} AS (SELECT vec_id, cl FROM (\n"
            f"           SELECT q.vec_id, c.cl,\n"
            f"                  ROW_NUMBER() OVER (PARTITION BY q.vec_id\n"
            f"                      ORDER BY SUM((q.v - c.c) * (q.v - c.c)) ASC,\n"
            f"                               c.cl ASC) AS rn\n"
            f"           FROM q JOIN c{r - 1} c ON c.i = q.i\n"
            f"           GROUP BY q.vec_id, c.cl) WHERE rn = 1),\n"
            f"u{r} AS (SELECT a.cl, q.i, CAST(SUM(q.v) // COUNT(*) AS BIGINT) AS c\n"
            f"         FROM a{r} a JOIN q USING (vec_id) GROUP BY a.cl, q.i),\n"
            f"c{r} AS (SELECT p.cl, p.i, COALESCE(u.c, p.c) AS c\n"
            f"         FROM c{r - 1} p LEFT JOIN u{r} u ON u.cl = p.cl AND u.i = p.i)"
        )
    last = n_iter - 1
    parts.append(
        f"fin AS (SELECT q.vec_id, c.cl,\n"
        f"               SUM((q.v - c.c) * (q.v - c.c)) AS d,\n"
        f"               ROW_NUMBER() OVER (PARTITION BY q.vec_id\n"
        f"                   ORDER BY SUM((q.v - c.c) * (q.v - c.c)) ASC,\n"
        f"                            c.cl ASC) AS rn\n"
        f"        FROM q JOIN c{last} c ON c.i = q.i\n"
        f"        GROUP BY q.vec_id, c.cl)"
    )
    return (
        ",\n".join(parts)
        + "\nSELECT vec_id, CAST(cl AS BIGINT) AS cluster, CAST(d AS BIGINT) AS dist"
        + "\nFROM fin WHERE rn = 1"
    )


SQL_KMEANS_INT_ITERS = _kmeans_sql(4, 3)


def _bpe_apply_merges(
    flat: np.ndarray, lens: np.ndarray, merges: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply BPE merges in order with greedy leftmost-nonoverlapping
    in-doc semantics, vectorized across the whole batch.  A merge is a
    pair KEY (left + chr(1) + right): any adjacent (t_i, t_{i+1}) whose
    sep-concatenation equals the key merges into the key itself — the
    exact semantics of the oracle's `t || chr(1) || tn = pair` match
    (no left/right re-parse, so a key with an ambiguous split merges
    every reading, identically on both engines).  A run of consecutive
    matches keeps even run offsets (greedy leftmost).  Returns the new
    (flat tokens, per-doc lengths)."""
    sep = "\x01"
    for key in merges:
        if len(flat) < 2:
            break
        ends = np.cumsum(lens)
        m = np.zeros(len(flat), dtype=bool)
        m[:-1] = (flat[:-1] + sep + flat[1:]) == key
        m[ends - 1] = False  # pairs never cross doc bounds
        if not m.any():
            continue
        idx = np.flatnonzero(m)
        new_run = np.concatenate([[True], np.diff(idx) != 1])
        rs = np.maximum.accumulate(np.where(new_run, idx, 0))
        ki = idx[((idx - rs) % 2) == 0]
        flat = flat.copy()
        flat[ki] = key
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        lens = lens - np.bincount(doc_of[ki + 1], minlength=len(lens)).astype(
            np.int64
        )
        delmask = np.zeros(len(flat), dtype=bool)
        delmask[ki + 1] = True
        flat = flat[~delmask]
    return flat, lens


def q_bpe_train_merges(sf_dir: str, n_merges: int = 3):
    """BPE tokenizer-training LOOP (the iterative sibling of the
    single-shot bpe_merge_pairs statistic): ``n_merges`` rounds of
    [recount all adjacent token pairs corpus-wide under the merges
    chosen so far] -> [pick the global argmax pair (count DESC, pair
    ASC)] -> [merge every greedy-leftmost occurrence].  Merged tokens
    join with chr(1) so they can merge again in later rounds; new pairs
    created by a merge count from the NEXT round (single left-to-right
    pass per round — the pinned semantics, mirrored by the oracle's
    unrolled CTEs).  Output: one row per round (it, pair, pair_count) —
    tiny, but its hash covers the full iterated computation, since
    round k's argmax depends on the exact global recount after k-1
    merges.

    Scale shape: the classic distributed BPE trainer — k streaming
    passes over the corpus, each applying the (tiny, broadcast-by-
    value) merge list in the scan task and counting pairs via in-task
    partials + ONE ``tiered.by_key`` merge on the pair with per-bucket
    argmax pruning; only N_BUCKETS candidate rows reach the driver per
    round."""
    # read once: every round rescans the same blocks
    ds = _read(sf_dir, "documents", columns=["text"]).materialize()
    merges: list[str] = []
    out_rows = []
    for it in range(1, n_merges + 1):
        cur = list(merges)

        def partial(batch: pa.Table, _m=cur) -> pa.Table:
            toks = pc.split_pattern(batch.column("text"), " ")
            lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
            flat = np.asarray(pc.list_flatten(toks), dtype=object)
            flat, lens = _bpe_apply_merges(flat, lens, _m)
            ends = np.cumsum(lens)
            mask = np.ones(len(flat), dtype=bool)
            mask[ends - 1] = False
            pi = np.flatnonzero(mask)
            df = pd.DataFrame({"p": flat[pi] + "\x01" + flat[pi + 1]})
            g = df.groupby("p", as_index=False).size()
            return pa.Table.from_pandas(
                g.rename(columns={"size": "c"}), preserve_index=False
            )

        def bucket_top1(group: pd.DataFrame) -> pd.DataFrame:
            g = group.groupby("p", as_index=False)["c"].sum()
            g = g.sort_values(["c", "p"], ascending=[False, True], kind="mergesort")
            return g.head(1)[["p", "c"]]

        cand = by_key(
            ds.map_batches(partial, batch_format="pyarrow"), "p", bucket_top1
        ).to_pandas()  # <= N_BUCKETS rows
        if not len(cand):
            break
        cand = cand.sort_values(["c", "p"], ascending=[False, True], kind="mergesort")
        best_p, best_c = cand.p.iloc[0], int(cand.c.iloc[0])
        out_rows.append((it, best_p, best_c))
        merges.append(best_p)
    return pa.table(
        {
            "it": pa.array([r[0] for r in out_rows], type=pa.int64()),
            "pair": pa.array([r[1] for r in out_rows], type=pa.string()),
            "pair_count": pa.array([r[2] for r in out_rows], type=pa.int64()),
        }
    )


def _bpe_sql(n_merges: int = 3) -> str:
    """Unrolled-iteration DuckDB oracle for q_bpe_train_merges: same
    greedy leftmost-nonoverlapping merge semantics (run parity over
    consecutive match positions), same (count DESC, pair ASC) argmax."""
    parts = [
        "WITH tok0 AS (SELECT doc_id, i, ws[i] AS t\n"
        "              FROM (SELECT doc_id, string_split(text, ' ') AS ws\n"
        "                    FROM documents) w,\n"
        "                   UNNEST(generate_series(1, len(ws))) AS g(i))"
    ]
    for k in range(1, n_merges + 1):
        prev = f"tok{k - 1}"
        parts.append(
            f"seq{k} AS (SELECT doc_id, i, t,\n"
            f"                  LEAD(t) OVER (PARTITION BY doc_id ORDER BY i) AS tn\n"
            f"           FROM {prev}),\n"
            f"cnt{k} AS (SELECT t || chr(1) || tn AS p, COUNT(*) AS c\n"
            f"           FROM seq{k} WHERE tn IS NOT NULL GROUP BY p),\n"
            f"best{k} AS (SELECT p, c FROM cnt{k} ORDER BY c DESC, p ASC LIMIT 1),\n"
            f"m{k} AS (SELECT s.doc_id, s.i\n"
            f"         FROM seq{k} s, best{k} b\n"
            f"         WHERE s.tn IS NOT NULL AND s.t || chr(1) || s.tn = b.p),\n"
            f"runs{k} AS (SELECT doc_id, i,\n"
            f"                   i - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS rid\n"
            f"            FROM m{k}),\n"
            f"keep{k} AS (SELECT doc_id, i FROM (\n"
            f"              SELECT doc_id, i,\n"
            f"                     MIN(i) OVER (PARTITION BY doc_id, rid) AS rmin\n"
            f"              FROM runs{k})\n"
            f"            WHERE (i - rmin) % 2 = 0),\n"
            f"tok{k} AS (SELECT s.doc_id,\n"
            f"                  ROW_NUMBER() OVER (PARTITION BY s.doc_id ORDER BY s.i) AS i,\n"
            f"                  CASE WHEN km.i IS NOT NULL THEN s.t || chr(1) || s.tn\n"
            f"                       ELSE s.t END AS t\n"
            f"           FROM seq{k} s\n"
            f"           LEFT JOIN keep{k} km ON km.doc_id = s.doc_id AND km.i = s.i\n"
            f"           LEFT JOIN keep{k} kp ON kp.doc_id = s.doc_id AND kp.i = s.i - 1\n"
            f"           WHERE kp.i IS NULL)"
        )
    selects = [
        f"SELECT {k} AS it, p AS pair, CAST(c AS BIGINT) AS pair_count FROM best{k}"
        for k in range(1, n_merges + 1)
    ]
    return ",\n".join(parts) + "\n" + "\nUNION ALL\n".join(selects)


SQL_BPE_TRAIN_MERGES = _bpe_sql(3)


def q_snapshot_full_outer(sf_dir: str):
    """Snapshot diff as a FULL OUTER join — the join-algebra member the
    registry lacked (inner/left/anti/semi/range/as-of are covered): per
    leading-content fingerprint, how many docs carry it in the PRIOR
    snapshot (doc_id%3==0, the incremental_dedup stand-in) vs the NEW
    one, keys present on EITHER side only reported with a 0 on the
    other — the churn report a recurring crawl ingest prints.

    Scale shape: both sides collapse to per-task (key, side) count
    partials BEFORE the shuffle (content never moves — 8-word keys md5
    to 16 bytes), then ONE ``tiered.by_key`` merge pivots prior/new counts
    with zero-fill; per-bucket groups are exact because a key lives in
    one bucket."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        keys = [
            hashlib.md5(_lead_key(t).encode()).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        df = pd.DataFrame({"k": keys, "prior": (ids % 3 == 0).astype(np.int64)})
        g = df.groupby(["k", "prior"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "c"}), preserve_index=False
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["k", "prior"], as_index=False)["c"].sum()
        piv = g.pivot_table(
            index="k", columns="prior", values="c", aggfunc="sum", fill_value=0
        )
        n_prior = (
            piv[1].to_numpy(np.int64) if 1 in piv.columns else np.zeros(len(piv), np.int64)
        )
        n_new = (
            piv[0].to_numpy(np.int64) if 0 in piv.columns else np.zeros(len(piv), np.int64)
        )
        return pd.DataFrame(
            {"fp_md5": piv.index.to_numpy(object), "n_prior": n_prior, "n_new": n_new}
        )

    return by_key(ds.map_batches(partial, batch_format="pyarrow"), "k", merge)


SQL_SNAPSHOT_FULL_OUTER = """
WITH k AS (SELECT doc_id,
                  md5(array_to_string(string_split(text, ' ')[1:8], ' ')) AS fp_md5
           FROM documents),
p AS (SELECT fp_md5, CAST(COUNT(*) AS BIGINT) AS n_prior
      FROM k WHERE doc_id % 3 = 0 GROUP BY fp_md5),
n AS (SELECT fp_md5, CAST(COUNT(*) AS BIGINT) AS n_new
      FROM k WHERE doc_id % 3 != 0 GROUP BY fp_md5)
SELECT COALESCE(p.fp_md5, n.fp_md5) AS fp_md5,
       CAST(COALESCE(p.n_prior, 0) AS BIGINT) AS n_prior,
       CAST(COALESCE(n.n_new, 0) AS BIGINT) AS n_new
FROM p FULL OUTER JOIN n ON p.fp_md5 = n.fp_md5
"""


def _pairs(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacent token pairs of a docs batch: (w1, 'w1 w2' keys, pairs
    per doc = max(n_tokens - 1, 0))."""
    flat, lens = _split(batch)
    flat = flat.to_numpy(zero_copy_only=False)
    mask = np.ones(len(flat), dtype=bool)
    mask[np.cumsum(lens) - 1] = False
    pi = np.flatnonzero(mask)
    w1 = flat[pi]
    keys = w1 + " " + flat[pi + 1] if len(pi) else np.array([], dtype=object)
    return w1, keys, np.maximum(lens - 1, 0)


def _bigram_counts(ds):
    """Materialized (key = pair, c2, c1 = count of its first token)
    table and the vocabulary size V.  Pair partials and the unigram
    rows meet by w1 in ``tiered.by_key``, so c1 attaches where c2 merges."""
    uni = count_table(ds, _uni_count_partial)
    PAIR_ROW, TOKEN_ROW = 0, 1

    def pair_rows(batch: pa.Table) -> pa.Table:
        w1, keys, _ = _pairs(batch)
        agg = (
            pa.table(
                {
                    "w1": pa.array(w1, type=pa.string()),
                    "key": pa.array(keys, type=pa.string()),
                    "c": np.ones(len(keys), dtype=np.int64),
                }
            )
            .group_by(["w1", "key"])
            .aggregate([("c", "sum")])
        )
        return pa.table(
            {
                "kind": pa.array(np.full(agg.num_rows, PAIR_ROW), type=pa.int8()),
                "w1": agg["w1"],
                "key": agg["key"],
                "c": agg["c_sum"],
            }
        )

    def token_rows(rows: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.full(rows.num_rows, TOKEN_ROW), type=pa.int8()),
                "w1": rows["key"],
                "key": pa.nulls(rows.num_rows, pa.string()),
                "c": rows["c"],
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        tok = group.filter(pc.equal(group["kind"], TOKEN_ROW))
        prs = (
            group.filter(pc.equal(group["kind"], PAIR_ROW))
            .group_by(["w1", "key"])
            .aggregate([("c", "sum")])
        )
        c1 = pd.Series(tok["c"].to_numpy(), index=tok["w1"].to_numpy())
        c1 = c1[prs["w1"].to_numpy()].to_numpy()
        return pa.table(
            {
                "key": prs["key"],
                "c2": prs["c_sum"],
                "c1": pa.array(c1, type=pa.int64()),
            }
        )

    pairs = by_key(
        [
            ds.map_batches(pair_rows, batch_format="pyarrow"),
            uni.map_batches(token_rows, batch_format="pyarrow"),
        ],
        "w1",
        merge,
        batch_format="pyarrow",
    ).materialize()
    return pairs, uni.count()


def q_bigram_logprob(sf_dir: str):
    """Bigram-LM quality score (the unigram perplexity filter's
    conditioned sibling): per-doc sum of lp(w_i | w_{i-1}) =
    floor(log10((c2(w_{i-1} w_i) + 1) / (c1(w_{i-1}) + V)) * 1e6) over
    adjacent-pair positions, add-one smoothing, V = corpus vocabulary.
    Docs with < 2 tokens emit (0, 0) on both engines.

    Training-set scoring means every scored pair was observed, so the
    table needs only OBSERVED pairs (corpus-bounded, never vocab^2).
    Pins are the unigram op's: int/int quotient then the fuzz-pinned
    log10, per-doc sums integer.

    Scale shape: a token-keyed unigram count, then one
    ``tiered.by_key`` pass on w1 that merges pair counts and attaches c1;
    scoring is `tiered.keyed_sum` over pair keys (broadcast, or past
    `tiered.BROADCAST_LIMIT` pairs the pair-bucketed attach whose
    all-docs side table gives the zero-pair docs)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs, v = _bigram_counts(ds)

    def lp(rows: pa.Table, tot) -> np.ndarray:
        c2 = np.asarray(rows["c2"], dtype=np.float64)
        c1 = np.asarray(rows["c1"], dtype=np.float64)
        return _log10_micro((c2 + 1.0) / (c1 + float(v)))[:, None]

    return keyed_sum(
        ds,
        lambda b: _pairs(b)[1:],
        pairs,
        lp,
        _doc_sum_columns("n_bigrams", "bigram_lp_micro_sum"),
    )


SQL_BIGRAM_LOGPROB = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
tok AS (SELECT doc_id, unnest(ws) AS t FROM w),
c1 AS (SELECT t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY t),
vtot AS (SELECT CAST(COUNT(*) AS BIGINT) AS v FROM c1),
pairs AS (SELECT doc_id, ws[i] AS w1, ws[i] || ' ' || ws[i + 1] AS p
          FROM w, UNNEST(generate_series(1, len(ws) - 1)) AS t(i)
          WHERE len(ws) >= 2),
c2 AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS c2 FROM pairs GROUP BY p),
lp AS (SELECT pr.doc_id,
              CAST(floor(log10((c2.c2 + 1) / CAST(c1.c + vtot.v AS DOUBLE))
                         * 1000000) AS BIGINT) AS lp
       FROM pairs pr JOIN c2 ON c2.p = pr.p JOIN c1 ON c1.t = pr.w1, vtot),
s AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(lp) AS BIGINT) AS s FROM lp GROUP BY doc_id)
SELECT d.doc_id, CAST(COALESCE(s.n, 0) AS BIGINT) AS n_bigrams,
       CAST(COALESCE(s.s, 0) AS BIGINT) AS bigram_lp_micro_sum
FROM documents d LEFT JOIN s USING (doc_id)
"""


def q_gopher_quality_filter(sf_dir: str):
    """Gopher-style rule filter (the published word-level rule family):
    per-doc word count band, mean-word-length band, fraction of words
    containing an alphabetic character, stopword hits, and the
    duplicate-2-gram character fraction (position i counts as duplicated
    iff its pair w_i+' '+w_{i+1} occurs >= 2 times in the doc; the
    fraction is sum(len(w_i)) over duplicated positions / over all pair
    positions).  Ratios quantized to MILLI ints (floor(1000*a/b) — pure
    integer on both engines) so the keep decision is bit-pinned.

    Scale shape: entirely within-doc — one streaming map_batches, no
    shuffle; the pair explosion lives and dies inside the scan task.
    Line-based Gopher rules (bullet/ellipsis ratios) are meaningless on
    the single-line synthetic corpus and are intentionally out of scope
    here; quality_scores carries the float ratio variants."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def rules(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = pc.list_flatten(toks)
        tlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = (
            pc.match_substring_regex(flat, "[A-Za-z]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        stop = (
            pc.is_in(flat, value_set=pa.array(list(STOPWORDS)))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        ends = np.cumsum(lens)
        starts = ends - lens

        def seg_sum(v: np.ndarray) -> np.ndarray:
            cs = np.concatenate([[0], np.cumsum(v)])
            return cs[ends] - cs[starts]

        n_words = lens
        sum_len = seg_sum(tlen)
        n_alpha = seg_sum(alpha)
        n_stop = seg_sum(stop)
        # duplicate-2-gram char fraction: pairs never cross doc bounds
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        w = np.asarray(flat, dtype=object)
        pair_mask = np.ones(len(w), dtype=bool)
        pair_mask[ends - 1] = False  # last token of each doc starts no pair
        pi = np.flatnonzero(pair_mask)
        dup2 = np.zeros(len(lens), dtype=np.int64)
        tot2 = np.zeros(len(lens), dtype=np.int64)
        if len(pi):
            pdf = pd.DataFrame(
                {
                    "d": doc_idx[pi],
                    "p": w[pi] + " " + w[pi + 1],
                    "l1": tlen[pi],
                }
            )
            dupd = pdf.groupby(["d", "p"])["p"].transform("size").to_numpy() >= 2
            gtot = pdf.groupby("d")["l1"].sum()
            gdup = pdf[dupd].groupby("d")["l1"].sum()
            tot2[gtot.index.to_numpy()] = gtot.to_numpy()
            dup2[gdup.index.to_numpy()] = gdup.to_numpy()
        mwl_milli = 1000 * sum_len // n_words
        alpha_milli = 1000 * n_alpha // n_words
        dup2_milli = np.where(tot2 > 0, 1000 * dup2 // np.maximum(tot2, 1), 0)
        keep = (
            (n_words >= 5)
            & (n_words <= 10000)
            & (mwl_milli >= 2000)
            & (mwl_milli <= 12000)
            & (alpha_milli >= 700)
            & (n_stop >= 1)
            & (dup2_milli <= 600)
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words, type=pa.int64()),
                "mean_word_len_milli": pa.array(mwl_milli, type=pa.int64()),
                "frac_alpha_milli": pa.array(alpha_milli, type=pa.int64()),
                "stopword_hits": pa.array(n_stop, type=pa.int64()),
                "dup2gram_milli": pa.array(dup2_milli, type=pa.int64()),
                "keep": pa.array(keep, type=pa.bool_()),
            }
        )

    return ds.map_batches(rules, batch_format="pyarrow")


_SW_IN = ",".join(f"'{w}'" for w in STOPWORDS)
SQL_GOPHER_QUALITY_FILTER = f"""
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
base AS (SELECT doc_id, ws, CAST(len(ws) AS BIGINT) AS nw,
                CAST(list_sum(list_transform(ws, x -> length(x))) AS BIGINT)
                    AS sum_len,
                CAST(len(list_filter(ws, x -> regexp_matches(x, '[A-Za-z]')))
                     AS BIGINT) AS n_alpha,
                CAST(len(list_filter(ws, x -> x IN ({_SW_IN}))) AS BIGINT)
                    AS n_stop
         FROM w),
pairs AS (SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS p,
                 CAST(length(ws[i]) AS BIGINT) AS l1
          FROM w, UNNEST(generate_series(1, len(ws) - 1)) AS t(i)
          WHERE len(ws) >= 2),
pc_ AS (SELECT doc_id, p, l1,
               COUNT(*) OVER (PARTITION BY doc_id, p) AS cnt
        FROM pairs),
p2 AS (SELECT doc_id, CAST(SUM(l1) AS BIGINT) AS tot2,
              CAST(COALESCE(SUM(l1) FILTER (WHERE cnt >= 2), 0) AS BIGINT)
                  AS dup2
       FROM pc_ GROUP BY doc_id),
m AS (SELECT b.doc_id, b.nw, 1000 * b.sum_len // b.nw AS mwl,
             1000 * b.n_alpha // b.nw AS fam, b.n_stop,
             CASE WHEN COALESCE(p2.tot2, 0) > 0
                  THEN 1000 * p2.dup2 // p2.tot2 ELSE 0 END AS d2
      FROM base b LEFT JOIN p2 ON p2.doc_id = b.doc_id)
SELECT doc_id, CAST(nw AS BIGINT) AS n_words,
       CAST(mwl AS BIGINT) AS mean_word_len_milli,
       CAST(fam AS BIGINT) AS frac_alpha_milli,
       CAST(n_stop AS BIGINT) AS stopword_hits,
       CAST(d2 AS BIGINT) AS dup2gram_milli,
       (nw >= 5 AND nw <= 10000 AND mwl >= 2000 AND mwl <= 12000
        AND fam >= 700 AND n_stop >= 1 AND d2 <= 600) AS keep
FROM m
"""


SQL_NB_CLASSIFY = """
WITH tok AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) AS t FROM documents),
vocab AS (SELECT DISTINCT t FROM tok),
vtot AS (SELECT CAST(COUNT(*) AS BIGINT) AS v FROM vocab),
lc AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS d_docs FROM documents GROUP BY lang),
dtot AS (SELECT CAST(COUNT(*) AS BIGINT) AS dd FROM documents),
ln AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_toks FROM tok GROUP BY lang),
ct AS (SELECT lang, t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY lang, t),
grid AS (SELECT ln.lang, v.t,
                CAST(floor(log10((COALESCE(ct.c, 0) + 1)
                                 / CAST(ln.n_toks + vtot.v AS DOUBLE)) * 1000000)
                     AS BIGINT) AS lp
         FROM ln CROSS JOIN vocab v
         LEFT JOIN ct ON ct.lang = ln.lang AND ct.t = v.t, vtot),
prior AS (SELECT lang,
                 CAST(floor(log10(CAST(d_docs AS DOUBLE) / dd) * 1000000)
                      AS BIGINT) AS lp0
          FROM lc, dtot),
scores AS (SELECT tok.doc_id, g.lang, SUM(g.lp) AS s
           FROM tok JOIN grid g ON g.t = tok.t
           GROUP BY tok.doc_id, g.lang),
tot AS (SELECT s.doc_id, s.lang,
               CAST(s.s + p.lp0 AS BIGINT) AS score
        FROM scores s JOIN prior p USING (lang)),
best AS (SELECT doc_id, lang AS nb_pred, score,
                ROW_NUMBER() OVER (PARTITION BY doc_id
                                   ORDER BY score DESC, lang ASC) AS rn
         FROM tot)
SELECT d.doc_id, d.lang, b.nb_pred, CAST(b.score AS BIGINT) AS nb_score_micro
FROM documents d JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
"""


# ===========================================================================
# registry
# ===========================================================================

QUERIES: dict[str, Callable[[str], Any]] = {
    "extract_pages": q_extract_pages,
    "extract_metrics": q_extract_metrics,
    "route_counts": q_route_counts,
    "lineitem_agg": q_lineitem_agg,
    "top_orders": q_top_orders,
    "revenue_by_mktsegment": q_revenue_by_mktsegment,
    "orders_lineitem_join": q_orders_lineitem_join,
    "score_filter": q_score_filter,
    "dedup_latest_wins": q_dedup_latest_wins,
    "grouped_concat": q_grouped_concat,
    "events_window": q_events_window,
    "topk_per_group": q_topk_per_group,
    "sessionize": q_sessionize,
    "asof_join": q_asof_join,
    "user_distinct_types": q_user_distinct_types,
    "token_counts": q_token_counts,
    "top_terms_per_lang": q_top_terms_per_lang,
    "quality_scores": q_quality_scores,
    "curation_filter": q_curation_filter,
    "lang_id": q_lang_id,
    "fingerprints": q_fingerprints,
    "rolling_fingerprints": q_rolling_fingerprints,
    "substring_dup_pairs": q_substring_dup_pairs,
    "decontam_flags": q_decontam_flags,
    "length_quantiles_per_lang": q_length_quantiles_per_lang,
    "props_extract_stats": q_props_extract_stats,
    "orders_antijoin": q_orders_antijoin,
    "user_running_totals": q_user_running_totals,
    "token_repetition_stats": q_token_repetition_stats,
    "stratified_sample": q_stratified_sample,
    "norm_dedup_groups": q_norm_dedup_groups,
    "event_funnel": q_event_funnel,
    "doc_salient_term": q_doc_salient_term,
    "sliding_window": q_sliding_window,
    "events_rollup": q_events_rollup,
    "length_outliers": q_length_outliers,
    "embedding_stats": q_embedding_stats,
    "dedup_exact": q_dedup_exact,
    "dup_groups": q_dup_groups,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "minhash_lsh_pairs": q_minhash_lsh_pairs,
    "simhash_signatures": q_simhash_signatures,
    "simhash_dup_recall": q_simhash_dup_recall,
    "minhash_dup_recall": q_minhash_dup_recall,
    "ann_ivf_full_probe": q_ann_ivf_full_probe,
    "embedding_cosine_pairs": q_embedding_cosine_pairs,
    "ann_topk": q_ann_topk,
    "ann_ivf_topk": q_ann_ivf_topk,
    "ann_ivf_seeded_topk": q_ann_ivf_seeded_topk,
    "heavy_hitter_tokens": q_heavy_hitter_tokens,
    "lang_distinct_hll": q_lang_distinct_hll,
    "warc_extract_pages": q_warc_extract_pages,
    "pdf_extract_pages": q_pdf_extract_pages,
    "ann_ivf_invariant": q_ann_ivf_invariant,
    "image_metadata": q_image_metadata,
    "video_frame_stats": q_video_frame_stats,
    "avi_frame_stats": q_avi_frame_stats,
    "gif_frame_stats": q_gif_frame_stats,
    "webp_metadata": q_webp_metadata,
    "audio_features": q_audio_features,
    "image_features": q_image_features,
    "pii_redaction": q_pii_redaction,
    "paragraph_dedup": q_paragraph_dedup,
    "domain_stats": q_domain_stats,
    "url_canonical_dedup": q_url_canonical_dedup,
    "unigram_logprob": q_unigram_logprob,
    "incremental_dedup": q_incremental_dedup,
    "range_join": q_range_join,
    "doc_embedding_join": q_doc_embedding_join,
    "link_graph_stats": q_link_graph_stats,
    "domain_pagerank": q_domain_pagerank,
    "rank_weighted_sample": q_rank_weighted_sample,
    "sequence_packing": q_sequence_packing,
    "bm25_topk": q_bm25_topk,
    "semantic_dup_groups": q_semantic_dup_groups,
    "bpe_token_stats": q_bpe_token_stats,
    "ccnet_buckets": q_ccnet_buckets,
    "blocklist_filter": q_blocklist_filter,
    "epoch_shuffle": q_epoch_shuffle,
    "bpe_merge_pairs": q_bpe_merge_pairs,
    "image_pixel_dup_groups": q_image_pixel_dup_groups,
    "dsir_weights": q_dsir_weights,
    "span_dedup_removal": q_span_dedup_removal,
    "lang_percentile_rank": q_lang_percentile_rank,
    "video_pixel_dup_groups": q_video_pixel_dup_groups,
    "orders_left_outer_agg": q_orders_left_outer_agg,
    "temperature_resample": q_temperature_resample,
    "zipf_slope": q_zipf_slope,
    "soft_dedup_weights": q_soft_dedup_weights,
    "nb_classify": q_nb_classify,
    "gopher_quality_filter": q_gopher_quality_filter,
    "audio_sample_dup_groups": q_audio_sample_dup_groups,
    "user_event_gaps": q_user_event_gaps,
    "bigram_logprob": q_bigram_logprob,
    "snapshot_full_outer": q_snapshot_full_outer,
    "bpe_train_merges": q_bpe_train_merges,
    "kmeans_int_iters": q_kmeans_int_iters,
    "events_cube": q_events_cube,
    "user_running_totals_salted": q_user_running_totals_salted,
    "dataset_split": q_dataset_split,
    "decontam_overlap_frac": q_decontam_overlap_frac,
}

ORACLE_SQL: dict[str, str] = {
    "extract_pages": SQL_EXTRACT_PAGES,
    "extract_metrics": SQL_EXTRACT_METRICS,
    "route_counts": SQL_ROUTE_COUNTS,
    "lineitem_agg": SQL_LINEITEM_AGG,
    "top_orders": SQL_TOP_ORDERS,
    "revenue_by_mktsegment": SQL_REVENUE_BY_MKTSEGMENT,
    "orders_lineitem_join": SQL_ORDERS_LINEITEM_JOIN,
    "score_filter": SQL_SCORE_FILTER,
    "dedup_latest_wins": SQL_DEDUP_LATEST_WINS,
    "grouped_concat": SQL_GROUPED_CONCAT,
    "events_window": SQL_EVENTS_WINDOW,
    "topk_per_group": SQL_TOPK_PER_GROUP,
    "sessionize": SQL_SESSIONIZE,
    "asof_join": SQL_ASOF_JOIN,
    "user_distinct_types": SQL_USER_DISTINCT_TYPES,
    "token_counts": SQL_TOKEN_COUNTS,
    "top_terms_per_lang": SQL_TOP_TERMS_PER_LANG,
    "quality_scores": SQL_QUALITY_SCORES,
    "curation_filter": SQL_CURATION_FILTER,
    "lang_id": SQL_LANG_ID,
    "fingerprints": SQL_FINGERPRINTS,
    "dedup_exact": SQL_DEDUP_EXACT,
    "dup_groups": SQL_DUP_GROUPS,
    "ngram_jaccard_pairs": SQL_NGRAM_JACCARD_PAIRS,
    "rolling_fingerprints": SQL_ROLLING_FINGERPRINTS,
    "substring_dup_pairs": SQL_SUBSTRING_DUP_PAIRS,
    "decontam_flags": SQL_DECONTAM_FLAGS,
    "length_quantiles_per_lang": SQL_LENGTH_QUANTILES,
    "props_extract_stats": SQL_PROPS_EXTRACT_STATS,
    "orders_antijoin": SQL_ORDERS_ANTIJOIN,
    "user_running_totals": SQL_USER_RUNNING_TOTALS,
    "token_repetition_stats": SQL_TOKEN_REPETITION_STATS,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "norm_dedup_groups": SQL_NORM_DEDUP_GROUPS,
    "event_funnel": SQL_EVENT_FUNNEL,
    "doc_salient_term": SQL_DOC_SALIENT_TERM,
    "sliding_window": SQL_SLIDING_WINDOW,
    "events_rollup": SQL_EVENTS_ROLLUP,
    "length_outliers": SQL_LENGTH_OUTLIERS,
    "embedding_stats": SQL_EMBEDDING_STATS,
    "minhash_lsh_pairs": SQL_MINHASH_LSH_PAIRS,
    "simhash_signatures": SQL_SIMHASH_SIGNATURES,
    "simhash_dup_recall": SQL_SIMHASH_DUP_RECALL,
    "minhash_dup_recall": SQL_MINHASH_DUP_RECALL,
    "ann_ivf_full_probe": SQL_ANN_TOPK,
    "embedding_cosine_pairs": SQL_EMBEDDING_COSINE_PAIRS,
    "ann_topk": SQL_ANN_TOPK,
    "ann_ivf_seeded_topk": SQL_ANN_IVF_SEEDED,
    "heavy_hitter_tokens": SQL_HEAVY_HITTER_TOKENS,
    "lang_distinct_hll": SQL_LANG_DISTINCT_HLL,
    "warc_extract_pages": SQL_EXTRACT_PAGES,
    "pdf_extract_pages": SQL_PDF_EXTRACT_PAGES,
    "image_metadata": SQL_IMAGE_METADATA,
    "video_frame_stats": SQL_VIDEO_FRAME_STATS,
    "avi_frame_stats": SQL_AVI_FRAME_STATS,
    "gif_frame_stats": SQL_GIF_FRAME_STATS,
    "webp_metadata": SQL_WEBP_METADATA,
    "audio_features": SQL_AUDIO_FEATURES,
    "image_features": SQL_IMAGE_FEATURES,
    "ann_ivf_invariant": SQL_ANN_IVF_INVARIANT,
    "pii_redaction": SQL_PII_REDACTION,
    "paragraph_dedup": SQL_PARAGRAPH_DEDUP,
    "domain_stats": SQL_DOMAIN_STATS,
    "url_canonical_dedup": SQL_URL_CANONICAL_DEDUP,
    "unigram_logprob": SQL_UNIGRAM_LOGPROB,
    "incremental_dedup": SQL_INCREMENTAL_DEDUP,
    "range_join": SQL_RANGE_JOIN,
    "doc_embedding_join": SQL_DOC_EMBEDDING_JOIN,
    "link_graph_stats": SQL_LINK_GRAPH_STATS,
    "domain_pagerank": SQL_DOMAIN_PAGERANK,
    "rank_weighted_sample": SQL_RANK_WEIGHTED_SAMPLE,
    "sequence_packing": SQL_SEQUENCE_PACKING,
    "bm25_topk": SQL_BM25_TOPK,
    "semantic_dup_groups": SQL_SEMANTIC_DUP_GROUPS,
    "bpe_token_stats": SQL_BPE_TOKEN_STATS,
    "ccnet_buckets": SQL_CCNET_BUCKETS,
    "blocklist_filter": SQL_BLOCKLIST_FILTER,
    "epoch_shuffle": SQL_EPOCH_SHUFFLE,
    "bpe_merge_pairs": SQL_BPE_MERGE_PAIRS,
    "image_pixel_dup_groups": SQL_IMAGE_PIXEL_DUP_GROUPS,
    "dsir_weights": SQL_DSIR_WEIGHTS,
    "span_dedup_removal": SQL_SPAN_DEDUP_REMOVAL,
    "lang_percentile_rank": SQL_LANG_PERCENTILE_RANK,
    "video_pixel_dup_groups": SQL_VIDEO_PIXEL_DUP_GROUPS,
    "orders_left_outer_agg": SQL_ORDERS_LEFT_OUTER_AGG,
    "temperature_resample": SQL_TEMPERATURE_RESAMPLE,
    "zipf_slope": SQL_ZIPF_SLOPE,
    "soft_dedup_weights": SQL_SOFT_DEDUP_WEIGHTS,
    "nb_classify": SQL_NB_CLASSIFY,
    "gopher_quality_filter": SQL_GOPHER_QUALITY_FILTER,
    "audio_sample_dup_groups": SQL_AUDIO_SAMPLE_DUP_GROUPS,
    "user_event_gaps": SQL_USER_EVENT_GAPS,
    "bigram_logprob": SQL_BIGRAM_LOGPROB,
    "snapshot_full_outer": SQL_SNAPSHOT_FULL_OUTER,
    "bpe_train_merges": SQL_BPE_TRAIN_MERGES,
    "kmeans_int_iters": SQL_KMEANS_INT_ITERS,
    "events_cube": SQL_EVENTS_CUBE,
    # identical semantics to the unsalted plan — same oracle
    "user_running_totals_salted": SQL_USER_RUNNING_TOTALS,
    "dataset_split": SQL_DATASET_SPLIT,
    "decontam_overlap_frac": SQL_DECONTAM_OVERLAP_FRAC,
}
