"""The three workloads: seeded inputs, one job, and the output check.

Each workload has a job (the unit a user waits for) and a check of a
job's outputs against the generator's expected values, run after the
timed window.

- ``crawl_html``: the common crawl-shard job.  sf0.1-shaped documents
  rendered into pages by ``sources.pages.pages_from_documents`` (80%
  html, 15% single-line bitmap on the det-bypass route, 5% empty), plus
  re-captured urls, extracted and written by ``state.manifest.
  run_resumable``.  The html fast path, routing, winners dedup,
  html/bitmap block skew and the write/manifest layer do the work; det
  does none.
- ``scan_ocr``: multi-line bitmap pages (5-8 lines, ~20% rotated 180
  degrees) read by ``read_pages`` and drained by iteration.
  det -> cls -> rec does almost all of the work; html, winners and
  write do almost none.
- ``curation_ops``: registry queries (``pipelines.queries.QUERIES``)
  over a seeded documents table, each checked against its DuckDB
  ``ORACLE_SQL``.  Exercises the groupby / shuffle / broadcast layer
  that extraction never touches.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from perfbench import gen

CRAWL_DOCS = 2000
CRAWL_SHARDS = 2
SCAN_PAGES = 192
SCAN_SHARDS = 12
CURATION_DOCS = 5000
# shuffle-tier (paragraph_dedup, bm25_topk) and broadcast-tier
# (unigram_logprob, nb_classify) queries.  Each costs ~1-2 s, mostly
# fixed, so the list is kept short enough for three jobs per run:
# domain_pagerank, incremental_dedup and ccnet_buckets are left out for
# time, minhash_lsh_pairs because its DuckDB oracle alone takes minutes
CURATION_QUERIES = (
    "paragraph_dedup",
    "unigram_logprob",
    "nb_classify",
    "bm25_topk",
)
OUTPUT_COLUMNS = ["url", "route", "err", "extracted_text"]


def _span(rt, name: str):
    """A span of the traced run's tracer, or nothing in a timed run."""
    return rt.tracer.span(name) if rt is not None else nullcontext()


@dataclass
class Job:
    wall_s: float
    first_output_s: float
    output: object = None
    extra: dict = field(default_factory=dict)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    exact: int = 0
    notes: list = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.exact += other.exact
        self.notes += other.notes


def check_docs(table, expected: dict, text_must_match: bool) -> Check:
    """Per-document check of an extraction output table.  A document
    fails when it is missing, duplicated, an unexpected error row or on
    the wrong route, or (with ``text_must_match``) when its text differs
    from the expected text.  Rows for urls nobody asked for also fail."""
    c = Check(attempted=len(expected))
    seen: dict[str, int] = {}
    rows = table.select(OUTPUT_COLUMNS).to_pylist()
    by_url = {}
    for r in rows:
        seen[r["url"]] = seen.get(r["url"], 0) + 1
        by_url[r["url"]] = r
    for url, (route, text) in expected.items():
        n = seen.get(url, 0)
        r = by_url.get(url)
        if n != 1:
            c.failed += 1
            if len(c.notes) < 5:
                c.notes.append(f"{url}: {n} rows")
            continue
        exact = r["extracted_text"] == text
        c.exact += exact
        bad_route = r["route"] != route or (route != "empty" and r["err"] is not None)
        if bad_route or (text_must_match and not exact):
            c.failed += 1
            if len(c.notes) < 5:
                c.notes.append(f"{url}: route={r['route']} err={r['err']} exact={exact}")
    extra = [u for u in seen if u not in expected]
    c.failed += len(extra)
    return c


class CrawlHtml:
    name = "crawl_html"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.docs = CRAWL_DOCS

    def prepare(self) -> dict:
        docs = gen.make_documents(CRAWL_DOCS, self.seed)
        self.files, self.expected, n_re = gen.make_crawl(
            docs, self.seed, CRAWL_SHARDS, os.path.join(self.work_dir, "in")
        )
        return {"docs": CRAWL_DOCS, "recaptures": n_re, "files": len(self.files)}

    def run_job(self, tag, rt=None) -> Job:
        from rapidocr_ray.state.manifest import run_resumable

        out = os.path.join(self.work_dir, f"out-{tag}")
        t_wall = time.time()
        t0 = time.perf_counter()
        with _span(rt, "run_resumable"):
            # one partition over both shards: every partition pays its own
            # actor-pool start-up (~3 s here), and a run has room for three
            # jobs, not three times two partitions
            report = run_resumable(self.files, out, files_per_partition=len(self.files))
        wall = time.perf_counter() - t0
        first = min(m["written_at"] for m in report["manifests"]) - t_wall
        return Job(wall, first, output=out, extra={"report": report})

    def read_output(self, job: Job):
        import pyarrow as pa
        import pyarrow.parquet as pq

        tables = [
            pq.read_table(p, columns=OUTPUT_COLUMNS)
            for p in sorted(glob.glob(os.path.join(job.output, "part-*", "*.parquet")))
        ]
        return pa.concat_tables(tables)

    def check(self, job: Job) -> Check:
        c = check_docs(self.read_output(job), self.expected, text_must_match=True)
        manifest_rows = job.extra["report"]["row_count"]
        if manifest_rows != len(self.expected):
            c.failed += abs(manifest_rows - len(self.expected))
            c.notes.append(f"manifest rows {manifest_rows} != {len(self.expected)}")
        return c

    def discard(self, job: Job) -> None:
        shutil.rmtree(job.output, ignore_errors=True)


class ScanOcr:
    name = "scan_ocr"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.docs = SCAN_PAGES

    def prepare(self) -> dict:
        self.files, self.expected, n_rot = gen.make_scan(
            SCAN_PAGES, self.seed, SCAN_SHARDS, os.path.join(self.work_dir, "in")
        )
        return {"docs": SCAN_PAGES, "rotated": n_rot, "files": len(self.files)}

    def run_job(self, tag, rt=None) -> Job:
        import pyarrow as pa

        from rapidocr_ray.pipelines.extract import build_extract_pipeline, read_pages

        t0 = time.perf_counter()
        ds = build_extract_pipeline(read_pages(self.files), winners_files=self.files)
        first = None
        parts = []
        with _span(rt, "drain"):
            for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
                if first is None:
                    first = time.perf_counter() - t0
                parts.append(batch.select(OUTPUT_COLUMNS))
        wall = time.perf_counter() - t0
        if rt is not None:
            rt.keep_stats(ds)
        return Job(wall, first, output=pa.concat_tables(parts))

    def read_output(self, job: Job):
        return job.output

    def check(self, job: Job) -> Check:
        return check_docs(job.output, self.expected, text_must_match=False)

    def discard(self, job: Job) -> None:
        job.output = None


def canon_hash(df) -> str:
    """Order-insensitive digest of a result frame: columns sorted by
    name, floats rounded to 9 places, rows serialised and sorted."""
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
    body = "\n".join(sorted(rows))
    return hashlib.md5(
        (",".join(c.lower() for c in cols) + "\n" + body).encode()
    ).hexdigest()


class CurationOps:
    name = "curation_ops"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.docs = CURATION_DOCS
        self._oracle: dict[str, str] | None = None

    def prepare(self) -> dict:
        self.sf_dir = os.path.join(self.work_dir, "sf")
        gen.write_documents(gen.make_documents(CURATION_DOCS, self.seed), self.sf_dir)
        return {"docs": CURATION_DOCS, "queries": list(CURATION_QUERIES)}

    def run_job(self, tag, rt=None) -> Job:
        from rapidocr_ray.pipelines.queries import QUERIES

        t0 = time.perf_counter()
        first = None
        frames = {}
        for name in CURATION_QUERIES:
            with _span(rt, f"query:{name}"):
                result = QUERIES[name](self.sf_dir)
                frames[name] = result.to_pandas()
            if rt is not None:
                rt.keep_stats(result, name)
            if first is None:
                first = time.perf_counter() - t0
        wall = time.perf_counter() - t0
        return Job(wall, first, output=frames)

    def oracle(self) -> dict[str, str]:
        if self._oracle is None:
            import duckdb

            from rapidocr_ray.pipelines.queries import ORACLE_SQL

            con = duckdb.connect()
            path = os.path.join(self.sf_dir, "documents.parquet")
            con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
            self._oracle = {
                name: canon_hash(con.execute(ORACLE_SQL[name]).df())
                for name in CURATION_QUERIES
            }
            con.close()
        return self._oracle

    def check(self, job: Job) -> Check:
        want = self.oracle()
        c = Check(attempted=len(CURATION_QUERIES))
        for name, df in job.output.items():
            if canon_hash(df) == want[name]:
                c.exact += 1
            else:
                c.failed += 1
                c.notes.append(f"{name}: result differs from its DuckDB oracle")
        return c

    def discard(self, job: Job) -> None:
        job.output = None


WORKLOADS = {w.name: w for w in (CrawlHtml, ScanOcr, CurationOps)}
