"""Minimal from-scratch PDF layer (PDF 1.x subset) — the north rule's
"PDF/layout parse" made real instead of an RBMP stand-in.

Two payload classes a crawl actually carries:
- born-digital PDFs: page content streams with text operators — text
  is extracted DIRECTLY (the PDF analog of the HTML fast path; no OCR).
  Supported operator subset: BT/ET text objects, Tj / ' / TJ show ops
  (kerning numbers ignored), Td/TD/T* line moves, () string literals
  with the full escape set (\\n \\r \\t \\b \\f \\( \\) \\\\, octal,
  line continuations, nested balanced parens).
- scanned PDFs: a page whose /Resources carries an image XObject —
  the raster is decoded (FlateDecode /DeviceGray 8-bit directly;
  DCTDecode through the from-scratch JPEG decoder in functions.jpeg)
  and routed into the det->cls->rec cascade like any bitmap payload.

Object scan is trailer-less (robust against the truncated/garbled
xrefs crawl PDFs routinely have): `N 0 obj ... endobj` spans are
walked directly; /Length is honored when it is a direct integer and
falls back to scanning for `endstream` otherwise.  Flate/LZW streams
honor /DecodeParms /Predictor (2 = TIFF horizontal differencing,
10-15 = PNG row filters — the encoding every PDF >= 1.5 xref stream
uses), and stream types that can never be page content (/XRef,
/ObjStm, /Metadata, fonts) are skipped rather than decoded.  All
malformed input raises typed ValueError; recognized-but-unsupported
features (encryption, exotic image filters/colorspaces, sub-byte
predictor rows) raise typed NotImplementedError — the same
crawl-triage contract as every decoder in this repo.

Fixture writers emit spec-valid PDFs (object table + xref + trailer)
so external tools can open what the tests parse.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

# module-level binds, NOT function-level imports: this module can ship
# to workers by value (ensure_worker_importable), where a live
# `import rapidocr_ray...` inside a function fails off-repo-CWD
from rapidocr_ray.functions.codecs import (
    _png_unfilter,
    _tiff_lzw_decode,
    _tiff_lzw_encode,
)
from rapidocr_ray.functions.jpeg import decode_jpeg

PDF_MAGIC = b"%PDF-"
_MAX_STREAM = 64 << 20  # decompression bound: typed error, never an OOM

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?!\s+\d+\s+R)")
_MAX_PIXELS = 1 << 26  # raster sanity bound (typed error past it)


def _inflate(data: bytes, max_bytes: int = _MAX_STREAM) -> bytes:
    d = zlib.decompressobj()
    try:
        out = d.decompress(data, max_bytes + 1)
    except zlib.error as exc:
        raise ValueError(f"pdf: corrupt FlateDecode stream ({exc})") from exc
    if len(out) > max_bytes:
        raise ValueError(f"pdf: decompressed stream exceeds {max_bytes}")
    if not d.eof:
        raise ValueError("pdf: truncated FlateDecode stream")
    return out


_BYTE_FILTERS = {
    b"FlateDecode", b"Fl",
    b"LZWDecode", b"LZW",
    b"ASCIIHexDecode", b"AHx",
    b"ASCII85Decode", b"A85",
    b"RunLengthDecode", b"RL",
}


def _parse_filters(head: bytes) -> list[bytes]:
    """/Filter entry -> decode-order filter names (name or array form;
    inline-image abbreviations accepted)."""
    m = re.search(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9]+)", head)
    if not m:
        return []
    return re.findall(rb"/([A-Za-z0-9]+)", m.group(1))


def _ascii_hex_decode(data: bytes) -> bytes:
    # C-speed path: truncate at the '>' EOD, drop PDF whitespace, and
    # let bytes.fromhex do the pairing (a per-byte Python loop cost
    # ~100 ms per 280 KB stream in the worker hot path)
    end = data.find(b">")
    if end >= 0:
        data = data[:end]
    body = data.translate(None, b" \t\r\n\f\x00")
    if len(body) % 2:  # odd final digit: low nibble is 0
        body += b"0"
    try:
        return bytes.fromhex(body.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError("pdf: bad ASCIIHexDecode character") from exc


def _ascii85_decode(data: bytes) -> bytes:
    import base64

    body = data
    end = body.find(b"~>")
    if end >= 0:
        body = body[: end + 2]
    try:
        return base64.a85decode(
            body, adobe=body.startswith(b"<~") or body.endswith(b"~>"),
            ignorechars=b" \t\n\r\v\f\x00",
        )
    except ValueError as exc:
        raise ValueError(f"pdf: bad ASCII85Decode stream ({exc})") from exc


def _runlength_decode(data: bytes, max_bytes: int) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        i += 1
        if length == 128:  # EOD
            return bytes(out)
        if length < 128:
            if i + length + 1 > n:
                raise ValueError("pdf: truncated RunLengthDecode literal")
            out += data[i:i + length + 1]
            i += length + 1
        else:
            if i >= n:
                raise ValueError("pdf: truncated RunLengthDecode run")
            out += bytes([data[i]]) * (257 - length)
            i += 1
        if len(out) > max_bytes:
            raise ValueError("pdf: RunLengthDecode output exceeds bound")
    raise ValueError("pdf: RunLengthDecode missing EOD")


def _apply_byte_filters(names: list[bytes], data: bytes, max_bytes: int) -> bytes:
    """Apply a decode-order chain of transport/compression filters.
    Every output is bounded (the FlateDecode bomb guard extends to the
    whole chain)."""
    for name in names:
        if name in (b"FlateDecode", b"Fl"):
            data = _inflate(data, max_bytes=max_bytes)
        elif name in (b"LZWDecode", b"LZW"):
            data = bytes(_tiff_lzw_decode(data, max_bytes + 1, require_full=False))
            if len(data) > max_bytes:
                raise ValueError("pdf: LZWDecode output exceeds bound")
        elif name in (b"ASCIIHexDecode", b"AHx"):
            data = _ascii_hex_decode(data)
        elif name in (b"ASCII85Decode", b"A85"):
            data = _ascii85_decode(data)
        elif name in (b"RunLengthDecode", b"RL"):
            data = _runlength_decode(data, max_bytes)
        else:
            raise NotImplementedError(
                f"pdf: stream filter {name.decode('latin-1')} unsupported"
            )
        if len(data) > max_bytes:
            raise ValueError("pdf: filtered stream exceeds bound")
    return data


def _dict_int(d: bytes, key: bytes) -> int | None:
    m = re.search(rb"/" + key + rb"\s+(\d+)\b", d)
    return int(m.group(1)) if m else None


def _parse_decodeparms(head: bytes) -> tuple[int, int, int, int]:
    """(predictor, colors, bits-per-component, columns) from the stream
    dict, spec defaults (1, 1, 8, 1).  The keys are grepped over the
    whole head rather than a parsed /DecodeParms sub-dict — for the
    image-XObject case /BitsPerComponent doubles as the image key,
    which the spec requires to agree with the predictor's anyway."""
    pm = re.search(rb"/Predictor\s+(\d+)", head)
    pred = int(pm.group(1)) if pm else 1
    colors = _dict_int(head, b"Colors") or 1
    bpc = _dict_int(head, b"BitsPerComponent") or 8
    columns = _dict_int(head, b"Columns") or 1
    return pred, colors, bpc, columns


def _predictor_decode(
    data: bytes, pred: int, colors: int, bpc: int, columns: int
) -> bytes:
    """Undo a /Predictor over Flate/LZW output (PDF 7.4.4.4): 2 = TIFF
    horizontal differencing (mod-256 prefix sum per channel), 10-15 =
    PNG row filters (per-row filter byte; the exact RFC 2083 unfilter
    the PNG decoder already implements).  Every modern xref stream is
    Flate + Predictor 12, so crawl PDFs hit this constantly."""
    if pred <= 1:
        return data
    if pred != 2 and not (10 <= pred <= 15):
        raise ValueError(f"pdf: unknown /Predictor {pred}")
    if bpc != 8:
        # sub-byte predictor rows are legal but vanishingly rare
        raise NotImplementedError("pdf: predictor with BitsPerComponent != 8")
    if colors < 1 or columns < 1:
        raise ValueError("pdf: bad predictor DecodeParms")
    rowbytes = colors * columns
    if pred == 2:
        if len(data) % rowbytes:
            raise ValueError("pdf: predictor-2 data not a whole row multiple")
        arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, columns, colors)
        return (np.cumsum(arr, axis=1, dtype=np.uint64) % 256).astype(
            np.uint8
        ).tobytes()
    if len(data) % (rowbytes + 1):
        raise ValueError("pdf: PNG-predictor data not a whole row multiple")
    h = len(data) // (rowbytes + 1)
    try:
        rows = _png_unfilter(
            np.frombuffer(data, dtype=np.uint8), h, rowbytes, max(1, colors)
        )
    except ValueError as exc:
        raise ValueError(f"pdf: corrupt PNG-predictor rows ({exc})") from exc
    return rows.tobytes()


# stream /Type-s that can never be page content: decoding them as
# content-stream candidates wastes work, and xref streams in particular
# (Flate + Predictor 12 in virtually every PDF >= 1.5) used to abort
# the whole document through the old blanket predictor stub.
_NON_CONTENT_TYPES = (
    b"/XRef",
    b"/ObjStm",
    b"/Metadata",
    b"/EmbeddedFile",
    b"/FontFile",  # also matches FontFile2/FontFile3 keys
)


def _scan_objects(data: bytes):
    """Yield (dict_bytes, stream_bytes|None) for every indirect object.
    The dict is everything between `obj` and `stream`/`endobj`.

    The `N M obj` regex is re-anchored PAST each object's stream body
    rather than finditer'd over the whole file: ASCII-transport stream
    content (ASCIIHexDecode of a raster's black regions is one long
    ``000...`` digit run) makes `\\d+\\s+\\d+\\s+obj` backtrack
    quadratically — a 280 KB hex stream cost ~20 s per scan before
    this, and milliseconds after."""
    pos = 0
    while True:
        m = _OBJ_RE.search(data, pos)
        if m is None:
            return
        body_start = m.end()
        end = data.find(b"endobj", body_start)
        if end < 0:
            raise ValueError("pdf: object without endobj")
        body = data[body_start:end]
        s = body.find(b"stream")
        if s < 0:
            yield body, None
            pos = end + len(b"endobj")
            continue
        head = body[:s]
        # stream data begins after CRLF or LF following the keyword
        data_start = body_start + s + len(b"stream")
        if data[data_start : data_start + 2] == b"\r\n":
            data_start += 2
        elif data[data_start : data_start + 1] == b"\n":
            data_start += 1
        lm = _LENGTH_RE.search(head)
        if lm:
            length = int(lm.group(1))
            data_end = data_start + length
            if data_end > len(data):
                raise ValueError("pdf: stream exceeds file (bad /Length)")
        else:
            # indirect or missing /Length: scan for the terminator
            data_end = data.find(b"endstream", data_start)
            if data_end < 0:
                raise ValueError("pdf: stream without endstream")
            # strip the trailing EOL the writer put before endstream
            while data_end > data_start and data[data_end - 1 : data_end] in (b"\r", b"\n"):
                data_end -= 1
        yield head, data[data_start:data_end]
        next_endobj = data.find(b"endobj", data_end)
        if next_endobj < 0:
            raise ValueError("pdf: object without endobj")
        pos = next_endobj + len(b"endobj")


def _unescape_literal(raw: bytes) -> str:
    out = bytearray()
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != 0x5C:  # backslash
            out.append(c)
            i += 1
            continue
        i += 1
        if i >= n:
            break  # trailing backslash: ignored per spec
        e = raw[i]
        if e in b"nrtbf":
            out.append({0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}[e])
            i += 1
        elif e in b"()\\":
            out.append(e)
            i += 1
        elif e in b"\r\n":  # line continuation
            i += 1
            if e == 0x0D and i < n and raw[i] == 0x0A:
                i += 1
        elif 0x30 <= e <= 0x37:  # octal, 1-3 digits
            val = 0
            k = 0
            while k < 3 and i < n and 0x30 <= raw[i] <= 0x37:
                val = val * 8 + (raw[i] - 0x30)
                i += 1
                k += 1
            out.append(val & 0xFF)
        else:  # unknown escape: the char itself, per spec
            out.append(e)
            i += 1
    return out.decode("latin-1")


def _read_literal(data: bytes, start: int) -> tuple[str, int]:
    """Parse a () string literal starting at the open paren; returns
    (text, index past the close paren).  Balanced nested parens and
    escapes per PDF 7.3.4.2."""
    depth = 0
    i = start
    n = len(data)
    raw = bytearray()
    while i < n:
        c = data[i]
        if c == 0x5C:  # escape: copy verbatim, resolve later
            raw.append(c)
            if i + 1 < n:
                raw.append(data[i + 1])
            i += 2
            continue
        if c == 0x28:  # (
            depth += 1
            if depth > 1:
                raw.append(c)
            i += 1
            continue
        if c == 0x29:  # )
            depth -= 1
            if depth == 0:
                return _unescape_literal(bytes(raw)), i + 1
            raw.append(c)
            i += 1
            continue
        raw.append(c)
        i += 1
    raise ValueError("pdf: unterminated string literal")


_LINE_OPS = (b"Td", b"TD", b"T*")


def extract_text_ops(content: bytes) -> list[str]:
    """Text-operator subset of a content stream -> lines.  Tj/'/TJ
    append to the current line; Td/TD/T* start a new one."""
    lines: list[str] = []
    cur: list[str] = []
    i = 0
    n = len(content)

    def flush():
        if cur:
            lines.append("".join(cur))
            cur.clear()

    while i < n:
        c = content[i]
        if c == 0x28:  # string literal (consumed by Tj / ' / TJ)
            text, i = _read_literal(content, i)
            cur.append(text)
            continue
        if content.startswith(_LINE_OPS[2], i):  # T*
            flush()
            i += 2
            continue
        if content.startswith(_LINE_OPS[0], i) or content.startswith(_LINE_OPS[1], i):
            flush()
            i += 2
            continue
        i += 1
    flush()
    return lines


def parse_pdf(payload: bytes) -> tuple[str, str | np.ndarray]:
    """PDF bytes -> ("text", extracted_str) | ("raster", gray ndarray).

    Raster wins when an image XObject is present (scanned docs often
    also carry an empty text layer); text otherwise."""
    payload = bytes(payload)
    if payload[:5] != PDF_MAGIC:
        raise ValueError("pdf: bad header")
    if b"/Encrypt" in payload[-2048:] or b"/Encrypt" in payload[:2048]:
        raise NotImplementedError("pdf: encrypted document (stub)")
    raster: np.ndarray | None = None
    text_lines: list[str] = []
    saw_obj = False
    for head, stream in _scan_objects(payload):
        saw_obj = True
        if stream is None:
            continue
        if b"/Subtype" in head and b"/Image" in head:
            if raster is not None:
                continue  # first image wins (single-page fixtures)
            w = _dict_int(head, b"Width")
            h = _dict_int(head, b"Height")
            bpc = _dict_int(head, b"BitsPerComponent")
            if not w or not h:
                raise ValueError("pdf: image XObject missing dimensions")
            names = _parse_filters(head)
            if names and names[-1] in (b"DCTDecode", b"DCT"):
                raster = decode_jpeg(
                    _apply_byte_filters(names[:-1], stream, _MAX_STREAM)
                )
                continue
            if bpc != 8 or b"/DeviceGray" not in head:
                raise NotImplementedError(
                    "pdf: image colorspace unsupported (8-bit DeviceGray)"
                )
            if w * h > _MAX_PIXELS:
                # a corrupt Width/Height must not widen the inflate
                # bound into a decompression-bomb window
                raise ValueError("pdf: image dimensions exceed sanity bound")
            pred, colors, pbpc, columns = _parse_decodeparms(head)
            # + h covers the per-row PNG filter bytes of Predictor >= 10
            px = _apply_byte_filters(names, stream, w * h + h + 64)
            if pred > 1:
                if columns == 1:  # DecodeParms omitted Columns: image rows
                    columns = w
                px = _predictor_decode(px, pred, colors, pbpc, columns)
            if len(px) < w * h:
                raise ValueError("pdf: image stream shorter than Width*Height")
            raster = np.frombuffer(px, dtype=np.uint8, count=w * h).reshape(h, w)
            continue
        if any(t in head for t in _NON_CONTENT_TYPES):
            continue  # xref/objstm/metadata/font streams are never content
        # content-stream candidate
        data = stream
        names = _parse_filters(head)
        if names:
            data = _apply_byte_filters(names, data, _MAX_STREAM)
            pred, colors, pbpc, columns = _parse_decodeparms(head)
            if pred > 1:
                data = _predictor_decode(data, pred, colors, pbpc, columns)
        if b"BT" in data:
            text_lines.extend(extract_text_ops(data))
    if not saw_obj:
        raise ValueError("pdf: no objects found")
    if raster is not None:
        return "raster", raster
    if text_lines:
        return "text", "\n".join(text_lines)
    raise ValueError("pdf: no extractable content (no text ops, no image)")


# ---------------------------------------------------------------------------
# fixture writers (spec-valid single-page PDFs)
# ---------------------------------------------------------------------------


def _escape_literal(s: str) -> bytes:
    out = s.encode("latin-1", errors="replace")
    return out.replace(b"\\", b"\\\\").replace(b"(", b"\\(").replace(b")", b"\\)")


def _assemble(objects: list[bytes]) -> bytes:
    """Number objects 1..n, emit header + bodies + xref + trailer."""
    parts = [b"%PDF-1.4\n"]
    offsets = []
    pos = len(parts[0])
    for i, body in enumerate(objects, start=1):
        obj = b"%d 0 obj\n" % i + body + b"\nendobj\n"
        offsets.append(pos)
        parts.append(obj)
        pos += len(obj)
    xref_pos = pos
    xref = [b"xref\n0 %d\n" % (len(objects) + 1), b"0000000000 65535 f \n"]
    for off in offsets:
        xref.append(b"%010d 00000 n \n" % off)
    parts.extend(xref)
    parts.append(
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (len(objects) + 1, xref_pos)
    )
    return b"".join(parts)


_FILTER_NAMES = {
    "flate": b"/FlateDecode",
    "lzw": b"/LZWDecode",
    "asciihex": b"/ASCIIHexDecode",
    "ascii85": b"/ASCII85Decode",
    "runlength": b"/RunLengthDecode",
}


def _predictor_encode(data: bytes, pred: int, columns: int) -> bytes:
    """Fixture-side inverse of _predictor_decode (colors=1, bpc=8).
    Predictors 10-14 emit one fixed PNG row filter (pred-10); 15
    rotates all five filters by row, exercising every unfilter branch.
    Input is padded to a whole row with 0x20 — inert in content streams
    (PDF whitespace) and sliced off past Width*Height in rasters."""
    if pred <= 1:
        return data
    if columns < 1:
        raise ValueError("pdf: bad predictor columns")
    data = data + b" " * ((-len(data)) % columns)
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, columns).astype(np.int32)
    if pred == 2:
        out = arr.copy()
        out[:, 1:] = (arr[:, 1:] - arr[:, :-1]) % 256
        return out.astype(np.uint8).tobytes()
    h = arr.shape[0]
    zero = np.zeros(columns, dtype=np.int32)
    rows = []
    for y in range(h):
        raw = arr[y]
        prev = arr[y - 1] if y else zero
        left = np.concatenate(([0], raw[:-1]))
        ul = np.concatenate(([0], prev[:-1]))
        f = (pred - 10) if pred < 15 else (y % 5)
        if f == 0:
            filt = raw
        elif f == 1:
            filt = (raw - left) % 256
        elif f == 2:
            filt = (raw - prev) % 256
        elif f == 3:
            filt = (raw - ((left + prev) >> 1)) % 256
        else:  # Paeth
            p = left + prev - ul
            pa, pb, pcv = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
            predv = np.where(
                (pa <= pb) & (pa <= pcv), left, np.where(pb <= pcv, prev, ul)
            )
            filt = (raw - predv) % 256
        rows.append(np.concatenate(([f], filt)).astype(np.uint8))
    return np.concatenate(rows).tobytes()


def _parms_frag(pred: int, columns: int) -> bytes:
    if pred <= 1:
        return b""
    return b" /DecodeParms << /Predictor %d /Columns %d >>" % (pred, columns)


def _encode_filter_chain(data: bytes, filters: tuple[str, ...]) -> tuple[bytes, bytes]:
    """Apply encoders in REVERSE of the decode-order `filters` tuple
    and return (encoded bytes, /Filter dict fragment)."""
    import base64

    def runlength_encode(d: bytes) -> bytes:
        out = bytearray()
        i = 0
        n = len(d)
        while i < n:
            run = 1
            while i + run < n and run < 128 and d[i + run] == d[i]:
                run += 1
            if run >= 2:
                out.append(257 - run)
                out.append(d[i])
                i += run
            else:
                j = min(n, i + 128)
                out.append(j - i - 1)
                out += d[i:j]
                i = j
        out.append(128)  # EOD
        return bytes(out)

    enc = {
        "flate": lambda d: zlib.compress(d, 6),
        "lzw": _tiff_lzw_encode,
        "asciihex": lambda d: d.hex().encode() + b">",
        "ascii85": lambda d: base64.a85encode(d, adobe=True),
        "runlength": runlength_encode,
    }
    for f in reversed(filters):
        data = enc[f](data)
    if not filters:
        return data, b""
    if len(filters) == 1:
        return data, b" /Filter " + _FILTER_NAMES[filters[0]]
    return data, b" /Filter [" + b" ".join(_FILTER_NAMES[f] for f in filters) + b"]"


def encode_pdf_text(
    lines: list[str],
    filters: tuple[str, ...] = ("flate",),
    predictor: int = 1,
    columns: int = 24,
) -> bytes:
    """Single-page born-digital PDF: one content stream (decode-order
    `filters` chain, default FlateDecode; optional /Predictor applied
    before compression), one Tj per line separated by TD line moves."""
    ops = [b"BT /F1 12 Tf 72 720 Td"]
    for i, line in enumerate(lines):
        if i:
            ops.append(b"0 -14 TD")
        ops.append(b"(" + _escape_literal(line) + b") Tj")
    ops.append(b"ET")
    content = _predictor_encode(b" ".join(ops), predictor, columns)
    content, filter_frag = _encode_filter_chain(content, filters)
    return _assemble(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>",
            b"<< /Length %d%s%s >>\nstream\n"
            % (len(content), filter_frag, _parms_frag(predictor, columns))
            + content
            + b"\nendstream",
            b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
        ]
    )


def encode_pdf_scanned(
    img: np.ndarray,
    filters: tuple[str, ...] = ("flate",),
    predictor: int = 1,
) -> bytes:
    """Single-page scanned PDF: 8-bit DeviceGray image XObject (decode-
    order `filters` chain, default FlateDecode; optional /Predictor
    with Columns = Width applied before compression) drawn full-page
    (lossless, so cascade extraction is byte-identical to the rendered
    page)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    px = _predictor_encode(img.tobytes(), predictor, w)
    px, filter_frag = _encode_filter_chain(px, filters)
    content = b"q %d 0 0 %d 0 0 cm /Im0 Do Q" % (w, h)
    return _assemble(
        [
            b"<< /Type /Catalog /Pages 2 0 R >>",
            b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 %d %d] " % (w, h)
            + b"/Resources << /XObject << /Im0 5 0 R >> >> /Contents 4 0 R >>",
            b"<< /Length %d >>\nstream\n" % len(content) + content + b"\nendstream",
            b"<< /Type /XObject /Subtype /Image /Width %d /Height %d " % (w, h)
            + b"/ColorSpace /DeviceGray /BitsPerComponent 8"
            + filter_frag
            + _parms_frag(predictor, w)
            + b" /Length %d >>\nstream\n" % len(px) + px + b"\nendstream",
        ]
    )
