"""Table reads through the footer-planned reader (``sources/parquet.py``):
the read fuses into the query's first map, block sizes do not split a
map's output, and no result depends on how many blocks the read makes."""

import hashlib
import json
import re

import duckdb
import pytest

from rapidocr_ray.pipelines.queries import ORACLE_SQL, QUERIES
from rapidocr_ray.sources import pages, parquet

SF_SMALL = "/root/testdata/sf0.01"
SF = "/root/testdata/sf0.1"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _canon(df) -> str:
    """Order-insensitive digest: columns sorted by name, floats rounded
    to 9 places, rows serialised and sorted."""
    cols = sorted(df.columns, key=str.lower)
    rows = []
    for row in df[cols].itertuples(index=False):
        vals = []
        for v in row:
            if hasattr(v, "item"):
                v = v.item()
            if v is None or (isinstance(v, float) and v != v):
                vals.append(None)
            elif isinstance(v, float):
                vals.append(round(v, 9))
            elif isinstance(v, (bool, int)):
                vals.append(v)
            else:
                vals.append(str(v))
        rows.append(json.dumps(vals, default=str))
    body = ",".join(c.lower() for c in cols) + "\n" + "\n".join(sorted(rows))
    return hashlib.md5(body.encode()).hexdigest()


@pytest.fixture(scope="module")
def oracle():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_SMALL}/{t}.parquet')")
    yield lambda name: _canon(con.execute(ORACLE_SQL[name]).df())
    con.close()


def _operators(ds) -> list[str]:
    return [line for line in ds.stats().splitlines() if line.startswith("Operator ")]


@pytest.mark.parametrize("n_tasks", [1, 8])
@pytest.mark.parametrize(
    "name",
    [
        "paragraph_dedup",
        "unigram_logprob",
        "nb_classify",
        "bm25_topk",
        "kmeans_int_iters",
        "extract_pages",
    ],
)
def test_results_do_not_depend_on_read_tasks(ray_session, monkeypatch, oracle, name, n_tasks):
    """Every table read (and the page synthesizers' documents read)
    forced to one task and to eight: each result equals its oracle."""
    planned = []
    plan_file = parquet.file_tasks

    def forced(f, _n):
        runs = plan_file(f, n_tasks)
        planned.append(len(runs))
        return runs

    monkeypatch.setattr(parquet, "file_tasks", forced)
    monkeypatch.setattr(pages, "file_tasks", forced)
    got = QUERIES[name](SF_SMALL).to_pandas()
    assert planned and set(planned) == {n_tasks}
    assert _canon(got) == oracle(name)


def test_curation_read_fuses_into_the_first_map(ray_session):
    """``unigram_logprob`` reads ``documents`` in the byte rule's tasks
    (two at this size) fused into its first map: no SplitBlocks
    operator, and the fused operator runs one task per read task."""
    (f,) = parquet.read_footers([f"{SF}/documents.parquet"], ["doc_id", "text"])
    n = len(parquet.table_plan([f]))
    assert n == 2
    ds = QUERIES["unigram_logprob"](SF).materialize()
    ops = _operators(ds)
    assert not any("SplitBlocks" in op for op in ops), ops
    (read,) = [op for op in ops if "ReadParquet" in op]
    assert read.startswith("Operator 1 ReadParquet->MapBatches(")
    assert f": {n} tasks executed, {n} blocks produced" in read


def test_block_size_floor_does_not_split_map_outputs(ray_session):
    """The reads tell Ray their real block size (at least 1 MiB).  A map
    whose output outgrows its input (``paragraph_dedup`` explodes each
    document into paragraphs) must still produce one block per task."""
    ds = QUERIES["paragraph_dedup"](SF).materialize()
    ops = _operators(ds)
    counted = [re.search(r": (\d+) tasks executed, (\d+) blocks produced", op) for op in ops]
    maps = [(op, m) for op, m in zip(ops, counted) if m and "MapBatches" in op]
    assert maps and any(op.startswith("Operator 1 ReadParquet->MapBatches(") for op, _ in maps)
    for op, m in maps:
        assert m.group(1) == m.group(2), op
