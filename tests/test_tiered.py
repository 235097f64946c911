"""The four keyed-sum scorers give the DuckDB oracle's answer on both
tiers of ``stages.tiered.keyed_sum``: the broadcast tier at the default
``BROADCAST_LIMIT`` and the bucketed tier with the limit forced to 0."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rapidocr_ray.pipelines import queries as q
from rapidocr_ray.stages import tiered

SCORERS = ["unigram_logprob", "bigram_logprob", "nb_classify", "dsir_weights"]


def _corpus(name):
    """(ids, texts, langs) of one named edge-case corpus."""
    rng = np.random.default_rng(8)
    words = ["a", "b", "c", "d", "naïve", "北京"]
    if name == "negative_ids":
        ids = [-7, -3, -1, 0, 2, 5, 9, 11]
        texts = [
            " ".join(rng.choice(words, size=rng.integers(1, 7))) for _ in ids
        ]
        return ids, texts, ["en" if i % 2 else "fr" for i in ids]
    if name == "empty_text":
        return [0, 1, 2], ["", "a b a", "b c"], ["en", "en", "fr"]
    if name == "one_token":
        return [0, 1, 2], ["solo", "a b a", "b solo c"], ["en", "fr", "fr"]
    if name == "single_doc":
        return [4], ["a b a c"], ["en"]
    assert name == "multi_lang"
    ids = list(range(-20, 40))
    langs = [["en", "fr", "es", "de"][i % 4] for i in ids]
    texts = [
        " ".join(
            rng.choice([f"{lang}{j}" for j in range(5)] + words, size=rng.integers(1, 9))
        )
        for lang in langs
    ]
    return ids, texts, langs


CASES = [
    (s, c)
    for s in SCORERS
    for c in ("negative_ids", "empty_text", "one_token", "single_doc")
]
CASES.append(("nb_classify", "multi_lang"))


def _frame(ds):
    df = ds.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("name,corpus", CASES)
def test_both_tiers_equal_oracle(ray_session, tmp_path, monkeypatch, name, corpus):
    ids, texts, langs = _corpus(corpus)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(langs, type=pa.string()),
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    d = str(tmp_path)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(q.ORACLE_SQL[name]).df()
    cols = sorted(want.columns)
    want = want[cols].sort_values(cols).reset_index(drop=True)

    broadcast = _frame(q.QUERIES[name](d))
    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    bucketed = _frame(q.QUERIES[name](d))

    assert len(broadcast) == len(ids)
    pd.testing.assert_frame_equal(broadcast, bucketed)
    pd.testing.assert_frame_equal(broadcast, want, check_dtype=False)


def test_missing_key_raises():
    """A key absent from the count table raises; it never reads row -1."""
    index = pd.Index(["a", "b"], dtype=object)
    assert list(tiered._positions(index, np.array(["b", "a"], dtype=object))) == [1, 0]
    with pytest.raises(KeyError):
        tiered._positions(index, np.array(["a", "zz"], dtype=object))


# ---------------------------------------------------------------------------
# by_key: the one keyed shuffle
# ---------------------------------------------------------------------------

SF = "/root/testdata/sf0.001"
INT_KEYS = [-(2**40), -7, -1, 0, 1, 5, 2**32, 2**32 + 1, 2**40 + 3, 2**62]


def _keyed_frames(ray_session):
    """(int-keyed, string-keyed, empty) Datasets over several blocks."""
    ints = pa.table(
        {
            "k": pa.array(INT_KEYS * 3, type=pa.int64()),
            "v": pa.array(np.arange(3 * len(INT_KEYS)), type=pa.int64()),
        }
    )
    strs = pa.table(
        {
            "k": pa.array(["a", "b", "naïve", "北京", "", None] * 2, type=pa.string()),
            "v": pa.array(np.arange(12), type=pa.int64()),
        }
    )
    empty = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    data = ray_session.data
    return (
        data.from_arrow(ints).repartition(4),
        data.from_arrow(strs).repartition(3),
        data.from_arrow(empty),
    )


@pytest.mark.parametrize("n_buckets", [1, 7, 64])
def test_by_key_groups_every_key_once(ray_session, monkeypatch, n_buckets):
    """Int keys (negative and above 2**32) and string keys (unicode,
    empty, null) each reach ``fn`` in exactly one group, whatever the
    bucket count; ``fn`` never sees the bucket column."""
    monkeypatch.setattr(tiered, "N_BUCKETS", n_buckets)
    ints, strs, empty = _keyed_frames(ray_session)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == ["k", "v"]  # raises on the worker
        return g.groupby("k", as_index=False, dropna=False)["v"].sum()

    got = tiered.by_key([ints, empty], "k", fn).to_pandas().sort_values("k")
    assert got.k.tolist() == sorted(INT_KEYS)
    assert got.v.tolist() == [
        sum(i + j * len(INT_KEYS) for j in range(3))
        for i in np.argsort(INT_KEYS)
    ]
    got = tiered.by_key(strs, "k", fn).to_pandas()
    assert len(got) == 6  # one row per distinct key, the null included
    assert dict(zip(got.k.fillna("<null>"), got.v)) == {
        "a": 6, "b": 8, "naïve": 10, "北京": 12, "": 14, "<null>": 16,
    }


@pytest.mark.parametrize("n_buckets", [1, 7, 64])
def test_by_key_two_input_join_co_locates(ray_session, monkeypatch, n_buckets):
    """A tagged two-input union is a join: every key's rows from both
    inputs meet in one group (pyarrow groups, int64 keys)."""
    monkeypatch.setattr(tiered, "N_BUCKETS", n_buckets)
    left = pa.table(
        {
            "k": pa.array(INT_KEYS, type=pa.int64()),
            "side": pa.array([0] * len(INT_KEYS), type=pa.int8()),
            "x": pa.array([f"l{i}" for i in range(len(INT_KEYS))]),
        }
    )
    right = pa.table(
        {
            "k": pa.array(INT_KEYS[::2] * 2, type=pa.int64()),
            "side": pa.array([1] * len(INT_KEYS), type=pa.int8()),
            "x": pa.array([f"r{i}" for i in range(len(INT_KEYS))]),
        }
    )

    def join(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        m = df[df.side == 0].merge(df[df.side == 1], on="k")
        return pa.table(
            {"k": pa.array(m.k, pa.int64()), "l": m.x_x.tolist(), "r": m.x_y.tolist()}
        )

    data = ray_session.data
    got = tiered.by_key(
        [data.from_arrow(left).repartition(3), data.from_arrow(right).repartition(2)],
        "k",
        join,
        batch_format="pyarrow",
    ).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k")
    key = ["k", "l", "r"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.rename(columns={"x_x": "l", "x_y": "r"})[key]
    pd.testing.assert_frame_equal(got, want.sort_values(key).reset_index(drop=True))


def test_key_bucket_hashes_timestamps_as_ints():
    """Timestamp keys bucket as their int64 microseconds; a uint64 wrap
    makes negative ids bucket like any other; strings use hash_array."""
    ts = pa.array([0, -5, 2**40], type=pa.timestamp("us"))
    ints = pa.array([0, -5, 2**40], type=pa.int64())
    assert tiered.key_bucket(ts, 64).tolist() == tiered.key_bucket(ints, 64).tolist()
    b = tiered.key_bucket(pa.chunked_array([ints[:1], ints[1:]]), 7)
    assert b.dtype == np.int64 and ((b >= 0) & (b < 7)).all()
    s = tiered.key_bucket(pa.array(["x", "y", "x"]), 64)
    assert s[0] == s[2]


def _pairs_ds(ray_session):
    """Near-dup pairs with chains, a star and negative ids."""
    a = [-9, -8, -7, 1, 2, 3, 10, 10, 10, 2**33]
    b = [-8, -7, -6, 2, 3, 4, 11, 12, 13, 2**33 + 1]
    return ray_session.data.from_arrow(
        pa.table({"doc_a": pa.array(a, pa.int64()), "doc_b": pa.array(b, pa.int64())})
    )


CONVERTED = [
    "paragraph_dedup", "domain_stats", "user_distinct_types", "unigram_logprob"
]


@pytest.mark.parametrize("name", CONVERTED)
def test_registry_queries_do_not_depend_on_the_bucket_count(
    ray_session, monkeypatch, name
):
    """One registry query per converted shape gives the same rows with
    every key in one bucket as at the default ``N_BUCKETS``
    (``unigram_logprob`` forces its bucketed tier, so its count table
    and both keyed-sum shuffles go through ``by_key``)."""
    from rapidocr_ray.pipelines import queries as q

    monkeypatch.setattr(tiered, "BROADCAST_LIMIT", 0)
    default = _frame(q.QUERIES[name](SF))
    monkeypatch.setattr(tiered, "N_BUCKETS", 1)
    one = _frame(q.QUERIES[name](SF))
    assert len(default) > 0
    pd.testing.assert_frame_equal(default, one)


def test_dup_groups_label_loop_does_not_depend_on_the_bucket_count(
    ray_session, monkeypatch
):
    """The distributed dup_groups loop (label lookups and per-node
    mins, all ``by_key``) gives union-find's components at any bucket
    count."""
    from rapidocr_ray.stages import dedup
    from rapidocr_ray.stages.dedup import dup_groups

    want = _frame(dup_groups(_pairs_ds(ray_session)))
    monkeypatch.setattr(dedup, "DUP_GROUPS_LOCAL_LIMIT", 0)
    for n in (1, 7):
        monkeypatch.setattr(tiered, "N_BUCKETS", n)
        got = _frame(dup_groups(_pairs_ds(ray_session)))
        pd.testing.assert_frame_equal(got, want)
    assert want.group_id.nunique() == 4
