import hashlib
import os

import pyarrow.parquet as pq

from perfbench import gen


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def test_documents_deterministic_and_seeded():
    a = gen.make_documents(300, 7)
    assert a.equals(gen.make_documents(300, 7))
    assert not a.equals(gen.make_documents(300, 8))
    assert sorted(a.column("doc_id").to_pylist()) == list(range(300))
    texts = a.column("text").to_pylist()
    assert all(len(t) == n for t, n in zip(texts, a.column("n_chars").to_pylist()))
    assert any(t.endswith(" dup") for t in texts)


def test_crawl_files_byte_identical_per_seed(tmp_path):
    docs = gen.make_documents(200, 3)
    f1, exp1, n1 = gen.make_crawl(docs, 3, 2, str(tmp_path / "a"))
    f2, exp2, n2 = gen.make_crawl(docs, 3, 2, str(tmp_path / "b"))
    f3, _, _ = gen.make_crawl(gen.make_documents(200, 4), 4, 2, str(tmp_path / "c"))
    assert digest(f1) == digest(f2) and exp1 == exp2 and n1 == n2
    assert digest(f1) != digest(f3)


def test_recaptures_share_a_shard_with_the_newer_capture(tmp_path):
    docs = gen.make_documents(400, 5)
    files, expected, n_re = gen.make_crawl(docs, 5, 3, str(tmp_path))
    assert n_re > 0
    where = {}
    rows = 0
    for k, path in enumerate(files):
        t = pq.read_table(path)
        rows += t.num_rows
        for url, ts in zip(t.column("url").to_pylist(), t.column("warc_ts").to_pylist()):
            where.setdefault(url, []).append((k, ts))
    assert rows == 400 + n_re and len(where) == 400 == len(expected)
    recaptured = {u: caps for u, caps in where.items() if len(caps) > 1}
    assert len(recaptured) == n_re
    for url, caps in recaptured.items():
        assert len({k for k, _ in caps}) == 1
        assert expected[url][0] == "html"
    # routes follow doc_id % 20; empty payloads expect no text
    for url, (route, text) in expected.items():
        doc_id = int(url.rsplit("/", 1)[1])
        assert route == gen.expected_route(doc_id)
        assert (text is None) == (route == "empty")


def test_scan_pages_deterministic(tmp_path):
    f1, e1, r1 = gen.make_scan(40, 9, 2, str(tmp_path / "a"))
    f2, e2, r2 = gen.make_scan(40, 9, 2, str(tmp_path / "b"))
    f3, _, _ = gen.make_scan(40, 10, 2, str(tmp_path / "c"))
    assert digest(f1) == digest(f2) and e1 == e2 and r1 == r2
    assert digest(f1) != digest(f3)
    lines = [text.count("\n") + 1 for _route, text in e1.values()]
    assert min(lines) >= 5 and max(lines) <= 8
    assert 0 < r1 < 40
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in f1) == 40
    assert all(os.path.basename(f).startswith("pages-") for f in f1)
