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
