"""Link-graph stage: deterministic integer PageRank + edge derivation.

The integer-nano-unit semantics make every assertion EXACT: a plain
Python dict reference loop with the same floor divisions must agree
bit-for-bit with both the broadcast path and the bucketed fallback,
at any block split."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rapidocr_ray.stages import graph, tiered
from rapidocr_ray.stages.graph import (
    DAMP_DEN,
    DAMP_NUM,
    TOTAL_NANO,
    derive_domain_edges,
    pagerank_int,
)

SF = "/root/testdata/sf0.001"


def ref_pagerank(edges, n_iter, total=TOTAL_NANO, damp=DAMP_NUM, den=DAMP_DEN):
    """Straight-line reference with the exact integer semantics."""
    nodes = sorted({s for s, _, _ in edges} | {d for _, d, _ in edges})
    n = len(nodes)
    ow: dict[str, int] = {}
    for s, _, w in edges:
        ow[s] = ow.get(s, 0) + w
    tele = (total * (den - damp)) // (den * n)
    r = {v: total // n for v in nodes}
    for _ in range(n_iter):
        ins = {v: 0 for v in nodes}
        for s, d, w in edges:
            ins[d] += (r[s] // ow[s]) * w
        r = {v: tele + (damp * ins[v]) // den for v in nodes}
    return r


def _edges_ds(ray, edges, n_splits=1):
    t = pa.table(
        {
            "src": pa.array([e[0] for e in edges], type=pa.string()),
            "dst": pa.array([e[1] for e in edges], type=pa.string()),
            "w": pa.array([e[2] for e in edges], type=pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    return ds.repartition(n_splits) if n_splits > 1 else ds


HAND_EDGES = [
    ("a", "b", 1),
    ("b", "a", 1),
    ("c", "b", 2),
    ("c", "c", 1),  # self-loop
    ("b", "d", 3),  # d has no out-edges (dangling: mass leaks, by design)
]


@pytest.mark.parametrize("n_splits", [1, 5])
@pytest.mark.parametrize("tier_kw", [{}, {"EDGE_LOCAL_LIMIT": 0}])
def test_pagerank_matches_reference(ray_session, monkeypatch, n_splits, tier_kw):
    """{} selects the driver-local tier; EDGE_LOCAL_LIMIT=0 forces the
    broadcast tier, where the split parametrization actually matters."""
    for name, value in tier_kw.items():
        monkeypatch.setattr(graph, name, value)
    out = (
        pagerank_int(_edges_ds(ray_session, HAND_EDGES, n_splits), n_iter=4)
        .to_pandas()
        .set_index("node")["rank_nano"]
        .to_dict()
    )
    assert out == ref_pagerank(HAND_EDGES, n_iter=4)


def test_pagerank_all_tiers_identical(ray_session, monkeypatch):
    """local (edge list on driver), broadcast (rank vector on driver),
    and bucketed (fully distributed) must agree bit-for-bit."""
    local = (
        pagerank_int(_edges_ds(ray_session, HAND_EDGES), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(graph, "EDGE_LOCAL_LIMIT", 0)
    bc = (
        pagerank_int(_edges_ds(ray_session, HAND_EDGES, 2), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(graph, "BROADCAST_LIMIT", 0)
    bk = (
        pagerank_int(_edges_ds(ray_session, HAND_EDGES, 3), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(local, bc)
    pd.testing.assert_frame_equal(local, bk)


def test_pagerank_teleport_only_for_no_inlink_node(ray_session):
    edges = [("a", "b", 1), ("c", "b", 1)]  # a and c have no in-links
    out = (
        pagerank_int(_edges_ds(ray_session, edges), n_iter=3)
        .to_pandas()
        .set_index("node")["rank_nano"]
        .to_dict()
    )
    n = 3
    tele = (TOTAL_NANO * (DAMP_DEN - DAMP_NUM)) // (DAMP_DEN * n)
    assert out["a"] == tele and out["c"] == tele
    assert out == ref_pagerank(edges, n_iter=3)


def test_pagerank_mass_conserved_without_dangling(ray_session):
    # every node has out-edges -> total mass stays within floor slack:
    # each of the n teleports and n damped sums floors away <1 unit,
    # and each src's share loses <ow units to floor division.
    edges = [("a", "b", 1), ("b", "c", 2), ("c", "a", 1), ("c", "b", 1)]
    out = pagerank_int(_edges_ds(ray_session, edges), n_iter=5).to_pandas()
    total = int(out.rank_nano.sum())
    slack = 2 * len(out) + sum(w for _, _, w in edges)
    assert TOTAL_NANO - slack * 6 <= total <= TOTAL_NANO


def test_pagerank_empty_edges(ray_session):
    out = pagerank_int(_edges_ds(ray_session, [("x", "y", 1)]).filter(lambda r: False))
    assert out.count() == 0


def test_derive_edges_total_weight(ray_session):
    ds = ray_session.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "source"]
    )
    n_docs = ds.count()
    edges = derive_domain_edges(ds, n_docs).to_pandas()
    # every doc emits exactly 3 outlinks, all resolved by the join
    assert int(edges.w.sum()) == 3 * n_docs
    assert (edges.w > 0).all()
    assert edges.groupby(["src", "dst"]).size().max() == 1  # fully merged


def test_derive_edges_block_split_invariant(ray_session, monkeypatch):
    ds = ray_session.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "source"]
    )
    n_docs = ds.count()
    a = (
        derive_domain_edges(ds, n_docs)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tiered, "N_BUCKETS", 7)
    b = (
        derive_domain_edges(ds.repartition(11), n_docs)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_pagerank_randomized_cross_check(ray_session, monkeypatch):
    """Seeded random multigraph (hub skew, self-loops, dangling sinks,
    weights up to 50): broadcast and bucketed tiers must both equal the
    dict reference bit-for-bit across 6 iterations."""
    rng = np.random.default_rng(20260818)
    n_nodes = 40
    names = [f"n{i:02d}" for i in range(n_nodes)]
    # skewed out-degree: node i emits ~Zipf-ish edges toward low ids
    raw = {}
    for i in range(n_nodes):
        if i % 7 == 3:
            continue  # dangling node (appears only as dst)
        for _ in range(int(rng.integers(1, 6))):
            j = int(rng.zipf(1.6)) % n_nodes
            w = int(rng.integers(1, 50))
            raw[(names[i], names[j])] = raw.get((names[i], names[j]), 0) + w
    edges = [(s, d, w) for (s, d), w in sorted(raw.items())]
    expected = ref_pagerank(edges, n_iter=6)
    for limits in ({}, {"EDGE_LOCAL_LIMIT": 0}, {"EDGE_LOCAL_LIMIT": 0, "BROADCAST_LIMIT": 0}):
        with monkeypatch.context() as m:
            for name, value in limits.items():
                m.setattr(graph, name, value)
            out = (
                pagerank_int(_edges_ds(ray_session, edges, 4), n_iter=6)
                .to_pandas()
                .set_index("node")["rank_nano"]
                .to_dict()
            )
        assert out == expected, limits


def test_pagerank_broadcast_tier_at_size(ray_session, monkeypatch):
    """5k-node / ~30k-edge seeded graph: the broadcast tier (rank
    vector on driver, streaming edge passes, positional np.add.at
    merge) must equal the local tier exactly — positional-index bugs
    in the partial merge only surface at size."""
    rng = np.random.default_rng(7)
    n = 5000
    src = rng.integers(0, n, 30000)
    dst = (src * 131 + rng.integers(1, 97, 30000)) % n
    w = rng.integers(1, 9, 30000)
    agg: dict[tuple[str, str], int] = {}
    for s, d, ww in zip(src, dst, w):
        k = (f"d{s:04d}", f"d{d:04d}")
        agg[k] = agg.get(k, 0) + int(ww)
    edges = [(s, d, ww) for (s, d), ww in sorted(agg.items())]
    local = (
        pagerank_int(_edges_ds(ray_session, edges, 8), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(graph, "EDGE_LOCAL_LIMIT", 0)
    bc = (
        pagerank_int(_edges_ds(ray_session, edges, 8), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(local, bc)
    # mass sanity: no dangling nodes were constructed only if every
    # node has out-edges; with random construction some lack them, so
    # just require a strictly positive total within the frame mass
    assert 0 < local.rank_nano.sum() <= 10**12


def test_pagerank_drops_nonpositive_weights(ray_session):
    """w<=0 rows carry no mass and would allow a zero out-weight
    (integer division by zero) — they must be filtered identically in
    every tier before out-weights are computed."""
    dirty = HAND_EDGES + [("a", "c", 0), ("zz", "a", 0)]
    clean = (
        pagerank_int(_edges_ds(ray_session, HAND_EDGES), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    got = (
        pagerank_int(_edges_ds(ray_session, dirty), n_iter=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(clean, got)


def test_pagerank_bucketed_exact_above_2_53(ray_session, monkeypatch):
    """Regression: the bucketed tier's in-sum fill once went through
    Series.map + fillna, promoting to float64 whenever a node lacked
    contributions and silently rounding totals above 2^53.  A 10^16
    total (above 2^53, inside the damp_num*total < 2^63 headroom
    contract) with a no-inlink node must stay bit-exact."""
    edges = [("a", "b", 1), ("c", "b", 1), ("b", "a", 3)]  # c: no in-links
    total = 10**16
    expected = ref_pagerank(edges, n_iter=3, total=total)
    monkeypatch.setattr(graph, "EDGE_LOCAL_LIMIT", 0)
    monkeypatch.setattr(graph, "BROADCAST_LIMIT", 0)
    out = (
        pagerank_int(_edges_ds(ray_session, edges, 2), n_iter=3, total=total)
        .to_pandas()
        .set_index("node")["rank_nano"]
        .to_dict()
    )
    assert out == expected


def test_pagerank_rejects_total_beyond_headroom(ray_session):
    with pytest.raises(ValueError, match="headroom"):
        pagerank_int(_edges_ds(ray_session, HAND_EDGES), total=2**60)


def test_graph_queries_randomized_docs_cross_check(ray_session, tmp_path):
    """Synthetic documents tables beyond the fixed testdata shape:
    different doc counts, heavily skewed source distributions, and
    NON-CONTIGUOUS doc_ids (derived targets then reference missing
    docs — both engines must drop them identically through their inner
    joins).  All three graph queries must match DuckDB exactly."""
    import duckdb
    import pyarrow.parquet as pq

    from rapidocr_ray.pipelines import queries as q

    rng = np.random.default_rng(31)

    def docs_dir(name, ids, sources):
        tbl = pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array(["t"] * len(ids), type=pa.string()),
                "lang": pa.array(["en"] * len(ids), type=pa.string()),
                "source": pa.array(sources, type=pa.string()),
                "n_chars": pa.array([1] * len(ids), type=pa.int64()),
            }
        )
        d = tmp_path / name
        d.mkdir()
        pq.write_table(tbl, str(d / "documents.parquet"))
        return str(d)

    def oracle(sf_dir, name):
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf_dir}/documents.parquet')"
        )
        return con.execute(q.ORACLE_SQL[name]).df()

    cases = []
    # skewed: 90% of docs in one source, contiguous ids, n=137 (prime)
    n = 137
    srcs = np.where(rng.random(n) < 0.9, "big", rng.choice(["a", "b", "c"], n))
    cases.append(docs_dir("skew", list(range(n)), list(srcs)))
    # non-contiguous, unsorted doc_ids (targets may not exist)
    ids = list(rng.choice(10000, size=80, replace=False))
    cases.append(docs_dir("sparse", ids, [f"s{i % 7}" for i in range(80)]))
    # single source, tiny
    cases.append(docs_dir("single", [0, 1, 2], ["only"] * 3))
    for d in cases:
        for name in ("link_graph_stats", "domain_pagerank", "rank_weighted_sample"):
            got = q.QUERIES[name](d).to_pandas()
            want = oracle(d, name)
            cols = sorted(got.columns)
            assert cols == sorted(want.columns), (d, name)
            a = got[cols].sort_values(cols).reset_index(drop=True)
            b = want[cols].sort_values(cols).reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b, check_dtype=False), (d, name)


def test_pagerank_int64_no_overflow_headroom():
    # worst case per-edge contribution sum is <= total mass; damped
    # numerator 85 * 10^12 must stay far inside int64
    assert DAMP_NUM * TOTAL_NANO < 2**62
