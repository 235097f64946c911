"""Tagged unions mark their row kinds with an explicit column, never with
a negative id: negative doc/event ids must give the DuckDB oracle's
answer on the three plans that used the id sign as the marker."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from rapidocr_ray.pipelines import queries as q

SF = "/root/testdata/sf0.001"


def _docs_dir(tmp_path, ids, texts):
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(["en"] * len(ids), type=pa.string()),
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def _check(got_ds, sf_dir, table, name):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{sf_dir}/{table}.parquet')"
    )
    want = con.execute(q.ORACLE_SQL[name]).df()
    got = got_ds.to_pandas()
    cols = sorted(want.columns)
    assert sorted(got.columns) == cols
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    return got


def test_doc_salient_term_negative_doc_ids(ray_session, tmp_path):
    ids = [-7, -3, -1, 0, 2, 5, 9, 11]
    texts = [f"w{abs(i) % 3} w{abs(i) % 3} w{abs(i) % 4} u{abs(i)}" for i in ids]
    d = _docs_dir(tmp_path, ids, texts)
    got = _check(q.QUERIES["doc_salient_term"](d), d, "documents", "doc_salient_term")
    assert len(got) == 8


def test_incremental_dedup_negative_new_doc(ray_session, tmp_path):
    """Doc -7 is new (-7 % 3 != 0 on both engines) and repeats prior
    doc 0 word for word, so it must come out as (-7, 1)."""
    ids = [-7, -3, 0, 1, 2, 4]
    texts = ["same lead text", "prior minus three", "same lead text",
             "fresh one", "fresh two", "prior minus three"]
    d = _docs_dir(tmp_path, ids, texts)
    got = _check(q.QUERIES["incremental_dedup"](d), d, "documents", "incremental_dedup")
    assert got.set_index("doc_id").loc[-7, "is_dup"] == 1


def test_salted_running_totals_negative_event_ids(ray_session, tmp_path):
    """sf0.001 events with every event_id shifted by -500: half the ids
    are negative, and all 1,000 rows must still match the oracle."""
    ev = pq.read_table(f"{SF}/events.parquet")
    ev = ev.set_column(
        ev.schema.get_field_index("event_id"),
        "event_id",
        pc.subtract(ev["event_id"], 500),
    )
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(ev, str(d / "events.parquet"))
    got = _check(
        q.QUERIES["user_running_totals_salted"](str(d)),
        str(d),
        "events",
        "user_running_totals_salted",
    )
    assert len(got) == 1000
