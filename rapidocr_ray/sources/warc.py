"""WARC (ISO 28500) source — the container format Common Crawl
actually ships.  The reference consumes loose image files/data-URLs
(python/rapidocr_onnxruntime/utils.py:94-152); this engine's north
rule is Common-Crawl-style web pages, so the input-domain extension is
a from-scratch WARC record reader: response records carrying an HTTP
response whose body is the page payload, optionally gzip-compressed
per record (the CC layout — a .warc.gz is a CONCATENATION of one gzip
member per record, so whole-file multi-member decompression yields the
plain WARC).

Surface:
- ``parse_warc``: bytes -> [(url, warc_ts, body)] for response
  records; warcinfo/request/metadata records are skipped.  Truncated
  or malformed input raises typed ValueError (the crawl-triage
  contract shared by every decoder in this repo).
- ``encode_warc``: deterministic fixture writer (warcinfo header
  record + one response record per row, optional per-record gzip).
- ``read_warc_files``: Ray Dataset over .warc/.warc.gz files —
  ``read_binary_files`` + a flat parse per file.  Scale shape: one
  file per task matches CC's ~1 GB shard layout; finer-grained
  splitting would range-split on gzip member boundaries (documented
  assumption, not needed while shards are uniform).
- ``warc_pages_ds_from_documents``: the driver-oracle path — renders
  the SAME per-doc payloads as sources.pages, round-trips them through
  encode_warc/parse_warc INSIDE each map task, and feeds the standard
  extraction pipeline, so the full WARC container layer is pinned by
  the plain-SQL extract_pages oracle.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import zlib

import pyarrow as pa

GZIP_MAGIC = b"\x1f\x8b"
_WARC_DATE_FMT = "%Y-%m-%dT%H:%M:%SZ"

WARC_SCHEMA = pa.schema(
    [("url", pa.string()), ("warc_ts", pa.timestamp("us")), ("html", pa.binary())]
)


def _gunzip_members(data: bytes, max_bytes: int) -> bytes:
    """RFC 1952 multi-member decompression with a bomb bound (typed
    ValueError, never an OOM)."""
    remaining = bytes(data)
    parts: list[bytes] = []
    total = 0
    while remaining[:2] == GZIP_MAGIC:
        d = zlib.decompressobj(wbits=31)
        try:
            out = d.decompress(remaining, max_bytes + 1 - total)
        except zlib.error as exc:
            raise ValueError(f"warc: corrupt gzip member ({exc})") from exc
        total += len(out)
        if total > max_bytes:
            raise ValueError(f"warc: decompressed size exceeds {max_bytes}")
        if not d.eof:
            raise ValueError("warc: truncated gzip member")
        parts.append(out)
        remaining = d.unused_data
    if remaining:
        raise ValueError("warc: trailing garbage after gzip members")
    return b"".join(parts)


def _parse_headers(block: bytes) -> dict[bytes, bytes]:
    headers: dict[bytes, bytes] = {}
    for line in block.split(b"\r\n"):
        if not line:
            continue
        key, sep, val = line.partition(b":")
        if not sep:
            raise ValueError("warc: malformed header line")
        headers[key.strip().lower()] = val.strip()
    return headers


def parse_warc(
    data: bytes, max_bytes: int = 1 << 30
) -> list[tuple[str, _dt.datetime, bytes]]:
    """WARC file bytes (.warc or .warc.gz) -> [(url, warc_ts, body)]
    for every response record, in file order."""
    data = bytes(data)
    if data[:2] == GZIP_MAGIC:
        data = _gunzip_members(data, max_bytes)
    rows: list[tuple[str, _dt.datetime, bytes]] = []
    pos = 0
    n = len(data)
    while pos < n:
        # tolerate blank lines between records
        while pos < n and data[pos : pos + 2] == b"\r\n":
            pos += 2
        if pos >= n:
            break
        if data[pos : pos + 5] != b"WARC/":
            raise ValueError("warc: missing WARC version line")
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            raise ValueError("warc: truncated record header")
        ver_end = data.find(b"\r\n", pos)
        headers = _parse_headers(data[ver_end + 2 : hdr_end])
        try:
            length = int(headers[b"content-length"])
        except (KeyError, ValueError) as exc:
            raise ValueError("warc: missing/invalid Content-Length") from exc
        if length < 0:
            raise ValueError("warc: negative Content-Length")
        body_start = hdr_end + 4
        body_end = body_start + length
        if body_end + 4 > n:
            raise ValueError("warc: truncated record body")
        if data[body_end : body_end + 4] != b"\r\n\r\n":
            raise ValueError("warc: missing record trailer")
        rtype = headers.get(b"warc-type", b"")
        uri = headers.get(b"warc-target-uri")
        if rtype == b"response" and uri:
            try:
                ts = _dt.datetime.strptime(
                    headers.get(b"warc-date", b"").decode("ascii"), _WARC_DATE_FMT
                )
            except (ValueError, UnicodeDecodeError) as exc:
                raise ValueError("warc: invalid WARC-Date") from exc
            body = data[body_start:body_end]
            if not body.startswith(b"HTTP/"):
                raise ValueError("warc: response record without HTTP block")
            split = body.find(b"\r\n\r\n")
            if split < 0:
                raise ValueError("warc: HTTP block missing header terminator")
            try:
                url = uri.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError("warc: non-utf8 WARC-Target-URI") from exc
            rows.append((url, ts, body[split + 4 :]))
        pos = body_end + 4
    return rows


def _http_response(body: bytes, content_type: bytes = b"text/html") -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: " + content_type
        + b"\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def _record(headers: list[tuple[bytes, bytes]], body: bytes) -> bytes:
    head = b"WARC/1.0\r\n" + b"".join(k + b": " + v + b"\r\n" for k, v in headers)
    return head + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body + b"\r\n\r\n"


def encode_warc(
    rows: list[tuple[str, _dt.datetime, bytes]],
    gzip_records: bool = False,
    warcinfo: bool = True,
) -> bytes:
    """Deterministic WARC writer: optional warcinfo record, then one
    response record per (url, ts, body).  Record IDs derive from the
    url hash (reproducible fixtures).  gzip_records=True emits the CC
    layout: each record its own gzip member."""
    out: list[bytes] = []

    def emit(rec: bytes) -> None:
        out.append(zlib.compress(rec, 6, wbits=31) if gzip_records else rec)

    if warcinfo:
        info_body = b"software: rapidocr_ray-warc-fixture\r\n"
        emit(
            _record(
                [
                    (b"WARC-Type", b"warcinfo"),
                    (b"WARC-Record-ID", b"<urn:uuid:00000000-0000-0000-0000-000000000000>"),
                    (b"WARC-Date", b"2026-01-01T00:00:00Z"),
                ],
                info_body,
            )
        )
    for url, ts, body in rows:
        rid = hashlib.md5(url.encode("utf-8")).hexdigest()
        emit(
            _record(
                [
                    (b"WARC-Type", b"response"),
                    (b"WARC-Target-URI", url.encode("utf-8")),
                    (b"WARC-Date", ts.strftime(_WARC_DATE_FMT).encode("ascii")),
                    (
                        b"WARC-Record-ID",
                        b"<urn:uuid:" + rid[:8].encode() + b"-" + rid[8:12].encode()
                        + b"-" + rid[12:16].encode() + b"-" + rid[16:20].encode()
                        + b"-" + rid[20:32].encode() + b">",
                    ),
                    (b"Content-Type", b"application/http; msgtype=response"),
                ],
                _http_response(bytes(body)),
            )
        )
    return b"".join(out)


def _rows_to_table(rows: list[tuple[str, _dt.datetime, bytes]]) -> pa.Table:
    return pa.table(
        {
            "url": [r[0] for r in rows],
            "warc_ts": [r[1] for r in rows],
            "html": [r[2] for r in rows],
        },
        schema=WARC_SCHEMA,
    )


def read_warc_files(
    paths: list[str] | str, max_bytes: int = 1 << 30, default_lang: str = "en"
):
    """Ray Dataset over .warc/.warc.gz files: one parse task per file
    (the CC shard granularity); emits (url, warc_ts, html, lang).

    WARC records carry no language; the cascade routes models by the
    ``lang`` column, so the reader attaches ``default_lang`` — the
    production flow for a multilingual crawl is lang-ID
    (functions.textstats) between this reader and extraction."""
    import ray.data

    from rapidocr_ray.util import ensure_worker_importable

    ensure_worker_importable()
    ds = ray.data.read_binary_files(paths)

    def parse_batch(batch: pa.Table) -> pa.Table:
        rows: list[tuple[str, _dt.datetime, bytes]] = []
        for blob in batch.column("bytes").to_pylist():
            rows.extend(parse_warc(blob, max_bytes=max_bytes))
        t = _rows_to_table(rows)
        return t.append_column(
            "lang", pa.array([default_lang] * t.num_rows, type=pa.string())
        )

    return ds.map_batches(parse_batch, batch_format="pyarrow")


def warc_pages_ds_from_documents(sf_dir: str, rows_per_block: int = 128):
    """Driver-oracle path: per batch, render the standard per-doc
    payloads (sources.pages routing), wrap them as a CC-style gzipped
    WARC, parse it back, and emit (url, warc_ts, html) — so the whole
    container layer (HTTP block, record framing, per-record gzip
    members) sits INSIDE the hash-checked extraction flow."""
    from rapidocr_ray.sources.pages import documents_ds, pages_from_documents

    ds = documents_ds(sf_dir, rows_per_block)

    def to_warc_and_back(batch: pa.Table) -> pa.Table:
        pages = pages_from_documents(batch)
        rows = list(
            zip(
                pages.column("url").to_pylist(),
                pages.column("warc_ts").to_pylist(),
                pages.column("html").to_pylist(),
            )
        )
        blob = encode_warc(rows, gzip_records=True)
        t = _rows_to_table(parse_warc(blob))
        # record order is preserved through encode/parse, so the lang
        # column (not part of WARC) re-attaches positionally — the
        # cascade routes models by it (T3)
        return t.append_column("lang", pages.column("lang"))

    return ds.map_batches(to_warc_and_back, batch_format="pyarrow")
