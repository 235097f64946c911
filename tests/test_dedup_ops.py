"""Dedup operator stages (exact / minhash-LSH / simhash / ngram-jaccard
/ embedding-cosine) against small in-memory oracles."""

import numpy as np
import pyarrow as pa
import pytest

from rapidocr_ray.functions.hashing import jaccard, shingle_set_hashes


def docs_table():
    texts = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        "alpha beta gamma delta epsilon zeta eta theta iota lambda",  # near-dup of 0
        "completely different content about query engines and rays",
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",  # exact dup of 0
        "unrelated short text",
    ]
    return pa.table({"doc_id": list(range(len(texts))), "text": texts})


@pytest.fixture()
def docs_ds(ray_session):
    import ray.data

    return ray.data.from_arrow(docs_table())


def test_exact_dedup(docs_ds):
    from rapidocr_ray.stages.dedup import exact_dedup

    out = exact_dedup(docs_ds).to_pandas()
    assert sorted(out.doc_id) == [0, 1, 2, 4]  # doc 3 deduped to 0


def test_ngram_jaccard_pairs_matches_oracle(docs_ds):
    from rapidocr_ray.stages.dedup import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(docs_ds, k=3, threshold=0.2).to_pandas()
    # oracle: exact jaccard on shingle hash sets
    texts = docs_table().column("text").to_pylist()
    sets = [shingle_set_hashes(t, 3) for t in texts]
    expect = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            jc = jaccard(sets[i], sets[j])
            if jc >= 0.2:
                expect[(i, j)] = jc
    got = {(int(r.doc_a), int(r.doc_b)): r.jaccard for r in out.itertuples()}
    assert set(got) == set(expect)
    for key in expect:
        assert got[key] == pytest.approx(expect[key], abs=1e-12)


def test_minhash_finds_exact_and_near_dups(docs_ds):
    from rapidocr_ray.stages.dedup import minhash_lsh_pairs

    out = minhash_lsh_pairs(docs_ds, threshold=0.5).to_pandas()
    pairs = {(int(r.doc_a), int(r.doc_b)) for r in out.itertuples()}
    assert (0, 3) in pairs  # exact dup: est_jaccard 1.0
    assert (0, 1) in pairs or (1, 3) in pairs  # near-dup found
    assert all(a < b for a, b in pairs)


def test_simhash_signatures(docs_ds):
    from rapidocr_ray.functions.hashing import hamming64
    from rapidocr_ray.stages.dedup import simhash_signatures

    out = simhash_signatures(docs_ds).to_pandas().set_index("doc_id")
    assert out.loc[0, "simhash"] == out.loc[3, "simhash"]  # identical text
    near = hamming64(int(out.loc[0, "simhash"]), int(out.loc[1, "simhash"]))
    far = hamming64(int(out.loc[0, "simhash"]), int(out.loc[2, "simhash"]))
    assert near < far


def test_embedding_cosine_pairs(ray_session):
    import ray.data

    from rapidocr_ray.stages.dedup import embedding_cosine_pairs

    rng = np.random.default_rng(3)
    base = rng.normal(size=8)
    vecs = [base, base + rng.normal(scale=0.01, size=8), rng.normal(size=8), -base]
    tbl = pa.table(
        {
            "vec_id": list(range(4)),
            "embedding": [list(map(float, v)) for v in vecs],
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = embedding_cosine_pairs(ds, threshold=0.95).to_pandas()
    pairs = {(int(r.vec_a), int(r.vec_b)) for r in out.itertuples()}
    assert pairs == {(0, 1)}


def test_dup_groups_local_tier_edges(ray_session):
    """The driver-local union-find tier: empty input yields an empty
    typed result (an empty Dataset round-trips to a column-less pandas
    frame, which the tier must guard), self-pairs label themselves."""
    import ray.data

    from rapidocr_ray.stages.dedup import dup_groups

    empty = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
    )
    out = dup_groups(empty)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "group_id"}
    one = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([7], pa.int64()), "doc_b": pa.array([7], pa.int64())})
    )
    assert dup_groups(one).to_pandas().to_dict("records") == [
        {"doc_id": 7, "group_id": 7}
    ]


def test_dup_groups_100k_pairs_distributed(ray_session, monkeypatch):
    """Connected components over 1e5 random pairs match a union-find
    oracle — exercises the bucketed label-join path (the label table is
    never collected to the driver) and pointer-jump convergence on a
    graph with a giant component."""
    import ray.data

    from rapidocr_ray.stages import dedup
    from rapidocr_ray.stages.dedup import dup_groups

    rng = np.random.default_rng(0)
    n = 60000
    a = rng.integers(0, n, 100000)
    b = rng.integers(0, n, 100000)
    mask = a != b
    lo = np.minimum(a, b)[mask].astype(np.int64)
    hi = np.maximum(a, b)[mask].astype(np.int64)

    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(lo, hi):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    comp: dict[int, list[int]] = {}
    for x in set(lo.tolist()) | set(hi.tolist()):
        comp.setdefault(find(x), []).append(x)
    truth = {}
    for r, nodes in comp.items():
        m = min(min(nodes), r)
        for x in nodes:
            truth[x] = m

    pairs = ray.data.from_arrow(pa.table({"doc_a": lo, "doc_b": hi}))
    # DUP_GROUPS_LOCAL_LIMIT = 0 forces the distributed tier (the
    # default would route a pair set this small to driver-side union-find)
    with monkeypatch.context() as m:
        m.setattr(dedup, "DUP_GROUPS_LOCAL_LIMIT", 0)
        out = dup_groups(pairs).to_pandas()
    got = dict(zip(out.doc_id, out.group_id))
    assert got == truth
    # the driver-local tier must produce the identical labelling
    out_local = dup_groups(pairs).to_pandas()
    assert dict(zip(out_local.doc_id, out_local.group_id)) == truth


def test_ngram_jaccard_short_docs_branch(ray_session):
    """Docs with <3 words contribute their whole text as one shingle
    (both the Ray pipeline and the SQL oracle's UNION branch)."""
    import duckdb
    import ray.data

    from rapidocr_ray.pipelines.queries import SQL_NGRAM_JACCARD_PAIRS
    from rapidocr_ray.stages.dedup import ngram_jaccard_pairs

    texts = [
        "hi",                     # 1 word
        "hi",                     # exact short dup -> jaccard 1.0
        "two words",              # 2 words
        "two words",              # dup
        "alpha beta gamma delta epsilon",
        "alpha beta gamma delta zeta",
    ]
    tbl = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    got = (
        ngram_jaccard_pairs(ray.data.from_arrow(tbl), k=3, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = (
        con.execute(SQL_NGRAM_JACCARD_PAIRS)
        .fetchdf()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) and len(got) >= 2
    assert (got.doc_a.values == exp.doc_a.values).all()
    assert (got.doc_b.values == exp.doc_b.values).all()
    assert (abs(got.jaccard.values - exp.jaccard.values) < 1e-12).all()


def test_dedup_by_url_winners_files_matches_generic(ray_session, tmp_path):
    """Winners read from the parquet files (``winners_files``) and
    winners read from the Dataset's own materialized blocks select
    exactly the same rows: both go through the same reader and merge
    tasks."""
    import datetime

    import pyarrow.parquet as pq
    import ray.data

    from rapidocr_ray.pipelines.extract import dedup_by_url

    ts = lambda m: datetime.datetime(2024, 1, 1, 0, m)
    tbl = pa.table(
        {
            "url": ["a", "a", "b", "c", "c", "c"],
            "warc_ts": pa.array([ts(1), ts(5), ts(2), ts(9), ts(3), ts(7)],
                                type=pa.timestamp("us")),
            "html": [f"p{i}".encode() for i in range(6)],
            "lang": ["en"] * 6,
        }
    )
    f = str(tmp_path / "pages.parquet")
    pq.write_table(tbl, f)
    generic = (
        dedup_by_url(ray.data.read_parquet(f))
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    fast = (
        dedup_by_url(ray.data.read_parquet(f), winners_files=[f])
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    assert generic.url.tolist() == fast.url.tolist() == ["a", "b", "c"]
    assert (generic.warc_ts == fast.warc_ts).all()
    assert generic.html.tolist() == fast.html.tolist()


# ---------------------------------------------------------------------------
# dedup_by_url edge inputs: every plan equals OracleExtractor's rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    from rapidocr_ray.pipelines.oracle import OracleExtractor

    return OracleExtractor()


def _pages(urls, ts_us, tag="p"):
    """Html pages with the given urls and epoch-microsecond warc_ts."""
    from rapidocr_ray.sources.pages import PAGES_SCHEMA

    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
            "html": [f"<p>{tag} {i}</p>".encode() for i in range(n)],
            "text": [""] * n,
            "lang": ["en"] * n,
        },
        schema=PAGES_SCHEMA,
    )


def _us(t) -> int:
    import pandas as pd

    return int((pd.Timestamp(t) - pd.Timestamp(0)) // pd.Timedelta(1, "us"))


def _rows(ds) -> list:
    """(url, warc_ts us, html) of every row, nulls first."""
    out = [(r["url"], _us(r["warc_ts"]), bytes(r["html"])) for r in ds.take_all()]
    return sorted(out, key=lambda r: (r[0] is not None, r[0] or "", r[1]))


def _check_every_plan(oracle, pages, ds, files=None):
    """The winners plan over the Dataset's blocks, over ``files`` when
    given, and the strict plan keep the same rows, and their (url,
    warc_ts) pairs are OracleExtractor.run's on ``pages``.  Returns the
    kept pairs."""
    from rapidocr_ray.pipelines.extract import dedup_by_url, read_pages

    plans = {
        "strict": _rows(dedup_by_url(ds, strict=True)),
        "blocks": _rows(dedup_by_url(ds)),
    }
    if files is not None:
        plans["files"] = _rows(dedup_by_url(read_pages(files), winners_files=files))
    want = {(r["url"], _us(r["warc_ts"])) for r in oracle.run(pages).to_pylist()}
    for name, rows in plans.items():
        assert rows == plans["strict"], name
        assert {(u, t) for u, t, _ in rows} == want, name
    return want


def _write(tables, tmp_path) -> list[str]:
    import pyarrow.parquet as pq

    files = []
    for i, t in enumerate(tables):
        files.append(str(tmp_path / f"pages-{i:03d}.parquet"))
        pq.write_table(t, files[-1])
    return files


def test_dedup_by_url_keeps_latest_null_url_capture(ray_session, tmp_path, oracle):
    """A null url is a url of its own, apart from "": every plan keeps
    its latest capture, as the oracle does."""
    from rapidocr_ray.pipelines.extract import read_pages

    pages = _pages([None, None, "a", "a", "", "b"], [1, 5, 2, 9, 3, 4])
    files = _write([pages], tmp_path)
    kept = _check_every_plan(oracle, pages, read_pages(files), files)
    assert kept == {(None, 5), ("", 3), ("b", 4), ("a", 9)}


def test_dedup_by_url_max_crosses_reader_chunks(ray_session, tmp_path, oracle):
    """More files than reader tasks, with one url captured in every
    file and its latest capture in the middle one: the max crosses the
    chunks.  A zero-row file sits among the files."""
    from rapidocr_ray.pipelines.extract import read_pages
    from rapidocr_ray.sources.pages import PAGES_SCHEMA
    from rapidocr_ray.util import session_cpus

    n_files = max(8, session_cpus()) + 3
    mid = n_files // 2
    tables = [
        _pages(["shared", f"only-{i}"], [5000 if i == mid else 100 + i, i], f"f{i}")
        for i in range(n_files)
    ]
    tables.insert(2, PAGES_SCHEMA.empty_table())
    files = _write(tables, tmp_path)
    pages = pa.concat_tables(tables)
    kept = _check_every_plan(oracle, pages, read_pages(files), files)
    assert ("shared", 5000) in kept
    assert len(kept) == n_files + 1


def test_dedup_by_url_pre_1970_captures(ray_session, tmp_path, oracle):
    """Negative epoch microseconds compare exactly; a capture stamped
    -1 us that is not its url's latest is dropped."""
    from rapidocr_ray.pipelines.extract import read_pages

    pages = _pages(
        ["old", "old", None, None, "older", "x"],
        [-1, -5_000_000, -1, 0, -(10**15), 0],
    )
    files = _write([pages], tmp_path)
    kept = _check_every_plan(oracle, pages, read_pages(files), files)
    assert kept == {("old", -1), (None, 0), ("older", -(10**15)), ("x", 0)}


def test_dedup_by_url_pandas_blocks(ray_session, oracle):
    """A generic Dataset of pandas blocks, one url split across them."""
    import ray.data

    pages = _pages(["a", "b", "a", "c", "b", "a"], [3, 1, 7, 2, 5, 4])
    ds = ray.data.from_pandas([pages.slice(0, 3).to_pandas(), pages.slice(3).to_pandas()])
    kept = _check_every_plan(oracle, pages, ds)
    assert kept == {("a", 7), ("b", 5), ("c", 2)}


def test_dedup_by_url_empty_inputs(ray_session, tmp_path, oracle):
    """Zero-row files, a zero-row block and zero blocks give no rows."""
    import ray.data

    from rapidocr_ray.pipelines.extract import dedup_by_url, read_pages
    from rapidocr_ray.sources.pages import PAGES_SCHEMA

    empty = PAGES_SCHEMA.empty_table()
    files = _write([empty], tmp_path)
    assert _check_every_plan(oracle, empty, read_pages(files), files) == set()
    assert _check_every_plan(oracle, empty, ray.data.from_arrow(empty)) == set()
    assert dedup_by_url(ray.data.from_arrow_refs([])).take_all() == []


def test_embedding_cosine_many_blocks_pruning_exact(ray_session):
    """B >= 64 blocks through the distributed block-pair scheduler:
    the pruned plan must still return the EXACT threshold-join result
    (oracle: dense numpy all-pairs on the same vectors)."""
    import ray.data

    from rapidocr_ray.stages.dedup import embedding_cosine_pairs

    rng = np.random.default_rng(17)
    n, d = 640, 16
    # clustered corpus so pruning actually fires: 8 well-separated
    # centers + per-point noise, plus planted near-dup pairs
    centers = rng.normal(size=(8, d)) * 6
    mat = centers[rng.integers(0, 8, n)] + rng.normal(scale=0.3, size=(n, d))
    mat[n - 5:] = mat[:5] + rng.normal(scale=0.005, size=(5, d))
    tbl = pa.table(
        {
            "vec_id": list(range(n)),
            "embedding": [list(map(float, v)) for v in mat],
        }
    )
    thr = 0.9
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = norm @ norm.T
    ii, jj = np.where(np.triu(sims >= thr, k=1))
    expected = set(zip(ii.tolist(), jj.tolist()))

    ds = ray.data.from_arrow(tbl)
    out = embedding_cosine_pairs(ds, threshold=thr, rows_per_block=10).to_pandas()
    got = {(int(r.vec_a), int(r.vec_b)) for r in out.itertuples()}
    assert got == expected

def test_minhash_broadcast_and_attach_paths_agree(docs_ds, monkeypatch):
    """The broadcast-score fast path and the bucketed attach-join
    fallback (forced via SIG_BROADCAST_BYTES=0) must emit identical
    (doc_a, doc_b, est_jaccard) rows."""
    from rapidocr_ray.stages import dedup
    from rapidocr_ray.stages.dedup import minhash_lsh_pairs

    fast = (
        minhash_lsh_pairs(docs_ds, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(dedup, "SIG_BROADCAST_BYTES", 0)
    slow = (
        minhash_lsh_pairs(docs_ds, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert fast.doc_a.tolist() == slow.doc_a.tolist()
    assert fast.doc_b.tolist() == slow.doc_b.tolist()
    assert np.allclose(fast.est_jaccard.to_numpy(), slow.est_jaccard.to_numpy())
    assert len(fast) > 0


def test_ngram_broadcast_and_attach_paths_agree(docs_ds, monkeypatch):
    """The broadcast-verify fast path and the semi-join-pruned attach
    fallback (forced via SIG_BROADCAST_BYTES=0) must emit identical
    exact (doc_a, doc_b, jaccard) rows."""
    from rapidocr_ray.stages import dedup
    from rapidocr_ray.stages.dedup import ngram_jaccard_pairs

    fast = (
        ngram_jaccard_pairs(docs_ds, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(dedup, "SIG_BROADCAST_BYTES", 0)
    slow = (
        ngram_jaccard_pairs(docs_ds, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert fast.doc_a.tolist() == slow.doc_a.tolist()
    assert fast.doc_b.tolist() == slow.doc_b.tolist()
    assert np.allclose(fast.jaccard.to_numpy(), slow.jaccard.to_numpy())


def test_minhash_empty_docs_never_pair(ray_session):
    """Zero-shingle (empty-text) docs must not LSH-pair with each other
    (the all-max sentinel signature is excluded from banding) — this is
    also what keeps the SQL oracle, which has no sig rows for them,
    hash-identical."""
    import ray.data

    from rapidocr_ray.stages.dedup import minhash_lsh_pairs

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["", "", "a real document with words " * 5,
                     "a real document with words " * 5],
        }
    )
    out = minhash_lsh_pairs(ray.data.from_arrow(tbl), threshold=0.5).to_pandas()
    pairs = {(int(r.doc_a), int(r.doc_b)) for r in out.itertuples()}
    assert (1, 2) not in pairs  # the two empty docs
    assert (3, 4) in pairs      # the two identical real docs


def test_substring_dup_pairs_cap_is_mirrored(ray_session, tmp_path):
    """The hot-hash stop-substring cap must exclude identically on the
    Ray side and the SQL oracle: 70 docs sharing one 16-byte phrase
    (over cap=64) produce NO pairs from it; 3 docs sharing another
    (under cap) pair up."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rapidocr_ray.pipelines import queries as q

    hot = "THE-HOT-BOILERPLATE-PHRASE-HERE "
    cold = "a rarer shared sixteen-byte run "
    texts, ids = [], []
    for i in range(70):
        ids.append(i)
        texts.append(f"doc {i} prefix {i*7} " + hot + f"suffix {i}")
    for i in range(70, 73):
        ids.append(i)
        texts.append(f"doc {i} prefix {i*7} " + cold + f"suffix {i}")
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": texts})
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))

    got = (
        q.QUERIES["substring_dup_pairs"](str(d))
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = (
        con.execute(q.ORACLE_SQL["substring_dup_pairs"])
        .df()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert got.values.tolist() == want.values.tolist()
    # the 3 cold-phrase docs pair among themselves; the hot phrase's
    # FULLY-interior windows (shared by all 70 docs > cap) are
    # excluded, so the 70-doc clique must NOT be complete (straddling
    # boundary windows shared by digit-collision subsets < cap still
    # legitimately pair some of them — e.g. every i ending in the same
    # digit — which is exactly the cap semantics, mirrored by the
    # oracle's HAVING)
    pairs = {tuple(p) for p in got.values.tolist()}
    assert {(70, 71), (70, 72), (71, 72)} <= pairs
    hot_side = [p for p in pairs if p[0] < 70 and p[1] < 70]
    assert len(hot_side) < 70 * 69 // 2  # cap removed the full clique


def test_semantic_dup_groups_planted_clusters(ray_session, tmp_path):
    """Planted geometry: cluster A = {0,1,2} chained near-identical
    vectors, cluster B = {5,6}, singletons 3/4 isolated — groups must be
    min-label components and match the recursive-CTE DuckDB oracle."""
    import duckdb

    import pyarrow.parquet as pq
    from rapidocr_ray.pipelines import queries as q

    rng = np.random.default_rng(17)
    a = np.eye(16)[0]
    b = np.eye(16)[1]
    c = np.eye(16)[2]  # orthogonal singleton: cosine 0 to everything
    vecs = [
        a,
        a + rng.normal(scale=0.01, size=16),
        a + rng.normal(scale=0.02, size=16),
        c,
        -a,
        b,
        b + rng.normal(scale=0.01, size=16),
    ]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(7)), type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, v.astype(np.float32))) for v in vecs],
                type=pa.list_(pa.float32()),
            ),
            "label": pa.array([0] * 7, type=pa.int32()),
        }
    )
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(tbl, str(d / "embeddings.parquet"))
    got = q.QUERIES["semantic_dup_groups"](str(d)).to_pandas()
    groups = {int(r.vec_id): int(r.group_id) for r in got.itertuples()}
    assert groups == {0: 0, 1: 0, 2: 0, 5: 5, 6: 5}
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{d}/embeddings.parquet')"
    )
    odf = con.execute(q.ORACLE_SQL["semantic_dup_groups"]).df()
    want = {int(r.vec_id): int(r.group_id) for r in odf.itertuples()}
    assert groups == want
