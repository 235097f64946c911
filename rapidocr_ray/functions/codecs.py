"""Pure-numpy image codecs: PNG, GIF, BMP decode (+ tiny encoders for
tests) — no cv2/PIL in this environment, so the container formats are
implemented from their public specs (PNG RFC 2083, GIF89a spec,
BITMAPINFOHEADER) on stdlib ``zlib`` + numpy.

Parity notes vs the reference loader (S1,
python/rapidocr_onnxruntime/utils.py:93-152):
- the reference goes ``PIL → RGB → cv2 BGR`` and keeps 3 channels; this
  engine is single-channel by design (SURVEY.md §7.0), so decoded RGB
  collapses to gray with cv2's exact fixed-point luma
  ``(R*4899 + G*9617 + B*1868 + 8192) >> 14`` (BGR2GRAY coefficients).
- alpha channels are flattened exactly like ``cvt_four_to_three``
  (utils.py:133-145): color kept where a != 0, zeroed elsewhere, then a
  saturated add of the inverted alpha (white background).
- JPEG (baseline sequential, multi-scan non-interleaved sequential,
  and progressive SOF2) decodes via the from-scratch huffman+IDCT
  codec in ``functions.jpeg`` (arithmetic coding / 12-bit raise typed
  errors).  TIFF decodes uncompressed + PackBits strips; WebP lossless
  (VP8L) decodes via ``functions.webp``; WebP lossy (VP8) raises a
  NAMED typed error (the VP8 entropy decoder is out of scope here).

Unsupported container features raise ``NotImplementedError`` with the
feature named, which the stages surface as typed error columns — the
same failure mode as the reference's ``LoadImageError``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from rapidocr_ray.functions.jpeg import decode_jpeg, encode_jpeg, rgb_to_gray  # noqa: F401
# module-level bind, NOT a function-level import: this module can ship
# to workers by value (ensure_worker_importable), where a live
# `import rapidocr_ray...` inside a function would fail off-repo-CWD
from rapidocr_ray.functions.webp import decode_webp
from rapidocr_ray.glyphs import decode_rbmp, is_rbmp

PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def flatten_alpha(rgba: np.ndarray) -> np.ndarray:
    """(h, w, 4) RGBA -> (h, w, 3) RGB on white, the reference's
    cvt_four_to_three semantics (utils.py:133-145): bitwise_and keeps
    color where alpha != 0, then a SATURATED add of (255 - alpha)."""
    a = rgba[:, :, 3]
    keep = (a != 0)[:, :, None]
    masked = np.where(keep, rgba[:, :, :3], 0).astype(np.uint16)
    out = masked + (255 - a).astype(np.uint16)[:, :, None]
    return np.minimum(out, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------

_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _png_unfilter(arr: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """(h*(stride+1),) filtered bytes -> (h, stride) reconstructed byte
    rows; ``bpp`` is the filter distance in BYTES (>=1 per spec)."""
    if arr.size != h * (stride + 1):
        raise ValueError("png: decompressed size mismatch")
    rows = arr.reshape(h, stride + 1)
    filters = rows[:, 0]
    recon = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        f = int(filters[y])
        raw_row = rows[y, 1:].astype(np.int32)
        if f == 0:
            r = raw_row
        elif f == 1:  # Sub: prefix sum per byte-offset class
            r = raw_row.copy()
            for c in range(bpp):
                r[c::bpp] = np.cumsum(r[c::bpp]) & 0xFF
        elif f == 2:  # Up
            r = (raw_row + prev) & 0xFF
        elif f == 3:  # Average (sequential in x via the left term)
            r = np.empty(stride, dtype=np.int32)
            for x in range(stride):
                left = r[x - bpp] if x >= bpp else 0
                r[x] = (raw_row[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            r = np.empty(stride, dtype=np.int32)
            for x in range(stride):
                left = r[x - bpp] if x >= bpp else 0
                up = prev[x]
                ul = prev[x - bpp] if x >= bpp else 0
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                if pa <= pb and pa <= pc:
                    pred = left
                elif pb <= pc:
                    pred = up
                else:
                    pred = ul
                r[x] = (raw_row[x] + pred) & 0xFF
        else:
            raise ValueError(f"png: unknown filter type {f}")
        recon[y] = r.astype(np.uint8)
        prev = r
    return recon


def _png_samples(rows: np.ndarray, w: int, channels: int, depth: int) -> np.ndarray:
    """(h, stride) reconstructed byte rows -> (h, w, channels) uint8
    samples.  16-bit takes the high byte (the PIL 16->8 rule); 1/2/4-bit
    unpacks MSB-first (raw sample values — callers scale gray)."""
    h = rows.shape[0]
    if depth == 8:
        return rows[:, : w * channels].reshape(h, w, channels)
    if depth == 16:
        return rows[:, : w * channels * 2].reshape(h, w, channels, 2)[..., 0]
    bits = np.unpackbits(rows, axis=1)[:, : w * channels * depth]
    groups = bits.reshape(h, w * channels, depth)
    weights = (1 << np.arange(depth - 1, -1, -1)).astype(np.uint8)
    vals = (groups * weights).sum(axis=2).astype(np.uint8)
    return vals.reshape(h, w, channels)


# Adam7 pass grid: (x0, y0, dx, dy)
_ADAM7 = (
    (0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
    (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2),
)


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes -> (h, w) grayscale uint8.  Supports bit depths
    1/2/4/8/16, color types 0/2/3/4/6, tRNS palette transparency, and
    Adam7 interlacing."""
    if data[:8] != PNG_MAGIC:
        raise ValueError("png: bad signature")
    pos = 8
    ihdr = None
    plte = trns = None
    idat = []
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        ctype = data[pos + 4:pos + 8]
        chunk = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"PLTE":
            plte = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"tRNS":
            trns = np.frombuffer(chunk, dtype=np.uint8)
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            break
    if ihdr is None or not idat:
        raise ValueError("png: missing IHDR/IDAT")
    w, h, depth, color, comp, filt, interlace = ihdr
    if color not in _PNG_CHANNELS:
        raise ValueError(f"png: unknown color type {color}")
    if depth not in (1, 2, 4, 8, 16) or (depth < 8 and color not in (0, 3)):
        raise ValueError(f"png: bit depth {depth} invalid for color type {color}")
    channels = _PNG_CHANNELS[color]
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    bpp = max(1, channels * depth // 8)

    def pass_samples(arr, pw, ph):
        stride = (pw * channels * depth + 7) // 8
        rows = _png_unfilter(arr, ph, stride, bpp)
        return _png_samples(rows, pw, channels, depth)

    if interlace == 0:
        img = pass_samples(raw, w, h)
    elif interlace == 1:  # Adam7
        img = np.zeros((h, w, channels), dtype=np.uint8)
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw <= 0 or ph <= 0:
                continue
            stride = (pw * channels * depth + 7) // 8
            size = ph * (stride + 1)
            img[y0::dy, x0::dx] = pass_samples(raw[off:off + size], pw, ph)
            off += size
    else:
        raise ValueError(f"png: unknown interlace method {interlace}")
    if color in (0, 4) and depth < 8:
        img = (img.astype(np.uint16) * (255 // ((1 << depth) - 1))).astype(np.uint8)
    if color == 0:
        return img.reshape(h, w)
    if color == 2:
        return rgb_to_gray(img)
    if color == 3:
        if plte is None:
            raise ValueError("png: palette image without PLTE")
        idx = img.reshape(h, w)
        rgb = plte[idx]
        if trns is not None:
            alpha = np.full(256, 255, dtype=np.uint8)
            alpha[: len(trns)] = trns
            rgba = np.dstack([rgb, alpha[idx]])
            return rgb_to_gray(flatten_alpha(rgba))
        return rgb_to_gray(rgb)
    if color == 4:
        rgba = np.dstack([img[:, :, 0]] * 3 + [img[:, :, 1]])
        return rgb_to_gray(flatten_alpha(rgba))
    return rgb_to_gray(flatten_alpha(img))  # color == 6


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def encode_png(img: np.ndarray) -> bytes:
    """(h, w) gray / (h, w, 3) RGB / (h, w, 4) RGBA uint8 -> PNG bytes
    (bit depth 8, filter 0 rows — a minimal spec-conformant writer for
    tests and debug output)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color, channels = 0, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        color, channels = 2, 3
    elif img.ndim == 3 and img.shape[2] == 4:
        color, channels = 6, 4
    else:
        raise ValueError("encode_png: expected (h,w), (h,w,3) or (h,w,4)")
    h, w = img.shape[:2]
    flat = img.reshape(h, w * channels)
    raw = b"".join(b"\x00" + flat[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (
        PNG_MAGIC
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw))
        + _png_chunk(b"IEND", b"")
    )


# ---------------------------------------------------------------------------
# GIF
# ---------------------------------------------------------------------------


def _gif_lzw_decode(min_code_size: int, data: bytes, n_pixels: int) -> np.ndarray:
    """GIF variable-width LZW -> pixel index array."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = np.empty(n_pixels, dtype=np.uint8)
    n_out = 0
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    code_size = min_code_size + 1
    acc = bits = 0
    prev: bytes | None = None
    for byte in data:
        acc |= byte << bits
        bits += 8
        while bits >= code_size:
            code = acc & ((1 << code_size) - 1)
            acc >>= code_size
            bits -= code_size
            if code == clear:
                table = table[: clear + 2]
                code_size = min_code_size + 1
                prev = None
                continue
            if code == eoi:
                return out[:n_out]
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise ValueError("gif: corrupt LZW stream")
            out[n_out:n_out + len(entry)] = np.frombuffer(entry, dtype=np.uint8)
            n_out += len(entry)
            prev = entry
            # the decoder's table lags the encoder's by one entry, so
            # the width bump comes one entry early (standard LZW sync)
            if len(table) + 1 == (1 << code_size) and code_size < 12:
                code_size += 1
    return out[:n_out]


def decode_gif(data: bytes) -> np.ndarray:
    """GIF bytes -> (h, w) grayscale uint8 of the FIRST frame (the
    reference's GIF special-case takes the first frame too,
    ocrweb_multi/rapidocr/main.py:29-40).  Handles global/local color
    tables, interlacing, and a GCE transparent index (rendered onto
    white, matching the alpha-flatten rule)."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("gif: bad signature")
    if len(data) < 13:
        raise ValueError("gif: truncated logical screen descriptor")
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(data[pos:pos + 3 * n], dtype=np.uint8).reshape(-1, 3)
        pos += 3 * n
    transparent = None
    while pos < len(data):
        block = data[pos]
        if block == 0x21:  # extension
            label = data[pos + 1]
            pos += 2
            if label == 0xF9 and data[pos] >= 4:  # GCE
                flags = data[pos + 1]
                if flags & 1:
                    transparent = data[pos + 4]
            while data[pos] != 0:  # skip sub-blocks
                pos += 1 + data[pos]
            pos += 1
        elif block == 0x2C:  # image descriptor: first frame wins
            _left, _top, w, h, ipacked = struct.unpack_from("<HHHHB", data, pos + 1)
            pos += 10
            table = gct
            if ipacked & 0x80:
                n = 2 << (ipacked & 0x07)
                table = np.frombuffer(
                    data[pos:pos + 3 * n], dtype=np.uint8
                ).reshape(-1, 3)
                pos += 3 * n
            if table is None:
                raise ValueError("gif: no color table")
            min_code = data[pos]
            pos += 1
            chunks = []
            while data[pos] != 0:
                size = data[pos]
                chunks.append(data[pos + 1:pos + 1 + size])
                pos += 1 + size
            idx = _gif_lzw_decode(min_code, b"".join(chunks), w * h)
            if idx.size < w * h:
                raise ValueError("gif: truncated pixel data")
            idx = idx[: w * h].reshape(h, w)
            if ipacked & 0x40:  # interlaced: 4-pass row order
                deinter = np.empty_like(idx)
                order = np.concatenate(
                    [np.arange(0, h, 8), np.arange(4, h, 8),
                     np.arange(2, h, 4), np.arange(1, h, 2)]
                )
                deinter[order] = idx
                idx = deinter
            rgb = table[np.minimum(idx, len(table) - 1)]
            if transparent is not None:
                a = np.where(idx == transparent, 0, 255).astype(np.uint8)
                return rgb_to_gray(flatten_alpha(np.dstack([rgb, a])))
            return rgb_to_gray(rgb)
        elif block == 0x3B:  # trailer
            break
        else:
            raise ValueError(f"gif: unknown block 0x{block:02x}")
    raise ValueError("gif: no image data")


def gif_frame_scan_sample(
    data: bytes, every_k: int = 1
) -> tuple[int, list["np.ndarray"]]:
    """Animated-GIF temporal sampling: walk every block (descriptor +
    sub-block SIZE hops — skipped frames are never LZW-decoded) and
    decode every k-th frame to gray.  Honest compositing scope: sampled
    frames must be full-canvas and opaque (the animation shape the
    fixture muxer emits); partial-frame placement or transparency on a
    SAMPLED frame raises a typed NotImplementedError — never a wrong
    composite.  Structural corruption raises ValueError."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("gif: bad signature")
    if len(data) < 13:
        raise ValueError("gif: truncated logical screen descriptor")
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(data[pos:pos + 3 * n], dtype=np.uint8).reshape(-1, 3)
        pos += 3 * n
    transparent = None
    idx_frame = 0
    frames: list[np.ndarray] = []
    while pos < len(data):
        block = data[pos]
        if block == 0x21:  # extension
            if pos + 2 > len(data):
                raise ValueError("gif: truncated extension introducer")
            label = data[pos + 1]
            pos += 2
            if label == 0xF9 and pos + 5 <= len(data) and data[pos] >= 4:
                flags = data[pos + 1]
                transparent = data[pos + 4] if flags & 1 else None
            while pos < len(data) and data[pos] != 0:
                pos += 1 + data[pos]
            if pos >= len(data):
                raise ValueError("gif: truncated extension")
            pos += 1
        elif block == 0x2C:  # image descriptor
            try:
                left, top, w, h, ipacked = struct.unpack_from("<HHHHB", data, pos + 1)
            except struct.error as exc:
                raise ValueError(f"gif: truncated descriptor ({exc})") from exc
            pos += 10
            table = gct
            if ipacked & 0x80:
                n = 2 << (ipacked & 0x07)
                table = np.frombuffer(
                    data[pos:pos + 3 * n], dtype=np.uint8
                ).reshape(-1, 3)
                pos += 3 * n
            if pos >= len(data):
                raise ValueError("gif: truncated frame")
            min_code = data[pos]
            pos += 1
            sampled = idx_frame % every_k == 0
            chunks = [] if sampled else None
            while pos < len(data) and data[pos] != 0:
                size = data[pos]
                if chunks is not None:
                    chunks.append(data[pos + 1:pos + 1 + size])
                pos += 1 + size
            if pos >= len(data):
                raise ValueError("gif: truncated pixel sub-blocks")
            pos += 1
            if sampled:
                if (left, top, w, h) != (0, 0, sw, sh):
                    raise NotImplementedError(
                        "gif: partial-frame animation compositing unsupported"
                    )
                if transparent is not None:
                    raise NotImplementedError(
                        "gif: transparent animation compositing unsupported"
                    )
                if table is None:
                    raise ValueError("gif: no color table")
                idx = _gif_lzw_decode(min_code, b"".join(chunks), w * h)
                if idx.size < w * h:
                    raise ValueError("gif: truncated pixel data")
                idx = idx[: w * h].reshape(h, w)
                if ipacked & 0x40:
                    deinter = np.empty_like(idx)
                    order = np.concatenate(
                        [np.arange(0, h, 8), np.arange(4, h, 8),
                         np.arange(2, h, 4), np.arange(1, h, 2)]
                    )
                    deinter[order] = idx
                    idx = deinter
                frames.append(rgb_to_gray(table[np.minimum(idx, len(table) - 1)]))
            transparent = None  # a GCE applies to the next image only
            idx_frame += 1
        elif block == 0x3B:
            break
        else:
            raise ValueError(f"gif: unknown block 0x{block:02x}")
    if idx_frame == 0:
        raise ValueError("gif: no image data")
    return idx_frame, frames


def encode_gif(img: np.ndarray) -> bytes:
    """(h, w) grayscale uint8 -> GIF89a bytes with a 256-gray global
    palette and a standard growing-table LZW stream (table reset on
    4096)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    out = [b"GIF89a", struct.pack("<HHBBB", w, h, 0x80 | 0x07, 0, 0)]
    palette = np.repeat(np.arange(256, dtype=np.uint8), 3)
    out.append(palette.tobytes())
    out.append(_gif_frame_chunk(img))
    out.append(b"\x3b")
    return b"".join(out)


def encode_gif_animation(frames: list[np.ndarray], delay_cs: int = 10) -> bytes:
    """Deterministic fixture muxer: same-shape (h, w) gray frames ->
    an animated GIF89a (full-canvas opaque frames, per-frame GCE with
    the delay, no NETSCAPE loop block) — the second real video
    container next to AVI/MJPG; GIF is lossless so frame stats have
    exact oracles."""
    if not frames:
        raise ValueError("gif: need at least one frame")
    h, w = frames[0].shape
    out = [b"GIF89a", struct.pack("<HHBBB", w, h, 0x80 | 0x07, 0, 0)]
    out.append(np.repeat(np.arange(256, dtype=np.uint8), 3).tobytes())
    for f in frames:
        if f.shape != (h, w):
            raise ValueError("gif: animation frames must share the canvas size")
        out.append(b"\x21\xf9\x04" + struct.pack("<BHB", 0, delay_cs, 0) + b"\x00")
        out.append(_gif_frame_chunk(f))
    out.append(b"\x3b")
    return b"".join(out)


def _gif_frame_chunk(img: np.ndarray) -> bytes:
    """One full-canvas image descriptor + LZW-coded sub-blocks +
    terminator (shared by the still encoder and the animation muxer)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    out = [b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0)]
    min_code = 8
    out.append(bytes([min_code]))
    clear, eoi = 1 << min_code, (1 << min_code) + 1
    acc = bits = 0
    stream = bytearray()
    code_size = min_code + 1

    def emit(code: int):
        nonlocal acc, bits
        acc |= code << bits
        bits += code_size
        while bits >= 8:
            stream.append(acc & 0xFF)
            acc >>= 8
            bits -= 8

    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = eoi + 1
    emit(clear)
    pixels = img.reshape(-1).tobytes()
    buf = b""
    for i in range(len(pixels)):
        cand = buf + pixels[i:i + 1]
        if cand in table:
            buf = cand
            continue
        emit(table[buf])
        buf = pixels[i:i + 1]
        if next_code < 4096:
            # assign cand; width bumps once the table holds 2^width
            # codes (mirrors the decoder's len(table) == 1<<size rule)
            table[cand] = next_code
            next_code += 1
            if next_code == (1 << code_size) and code_size < 12:
                code_size += 1
        else:  # table full: clear and restart (decoder mirrors)
            emit(clear)
            table = {bytes([i]): i for i in range(clear)}
            next_code = eoi + 1
            code_size = min_code + 1
    if buf:
        emit(table[buf])
    emit(eoi)
    if bits:
        stream.append(acc & 0xFF)
    for i in range(0, len(stream), 255):
        chunk = bytes(stream[i:i + 255])
        out.append(bytes([len(chunk)]) + chunk)
    out.append(b"\x00")
    return b"".join(out)


# ---------------------------------------------------------------------------
# BMP
# ---------------------------------------------------------------------------


def decode_bmp(data: bytes) -> np.ndarray:
    """BMP bytes -> (h, w) grayscale uint8.  Uncompressed (BI_RGB)
    1/4/8-bit palette / 24-bit / 32-bit DIBs, BI_RLE8 and BI_RLE4
    runs, BI_BITFIELDS 16/32-bit, bottom-up or top-down rows, 4-byte
    row padding.  32-bit alpha is ignored (cv2.imread default
    drops it)."""
    if data[:2] != b"BM":
        raise ValueError("bmp: bad signature")
    (data_off,) = struct.unpack_from("<I", data, 10)
    (hdr_size,) = struct.unpack_from("<I", data, 14)
    if hdr_size < 40:
        raise NotImplementedError("bmp: BITMAPCOREHEADER unsupported")
    w, h_raw = struct.unpack_from("<ii", data, 18)
    bpp, comp = struct.unpack_from("<HI", data, 28)[0], struct.unpack_from("<I", data, 30)[0]
    if comp not in (0, 1, 2, 3):
        raise NotImplementedError(
            f"bmp: compression {comp} unsupported (BI_RGB/BI_RLE8/BI_RLE4/BI_BITFIELDS)"
        )
    if comp == 1 and bpp != 8:
        raise ValueError(f"bmp: BI_RLE8 requires 8-bit pixels (got {bpp})")
    if comp == 2 and bpp != 4:
        raise ValueError(f"bmp: BI_RLE4 requires 4-bit pixels (got {bpp})")
    if comp == 3:
        return _bmp_bitfields_decode(data, data_off, hdr_size, w, h_raw, bpp)
    if bpp not in (1, 4, 8, 24, 32):
        raise NotImplementedError(f"bmp: {bpp}-bit unsupported (1/4/8/24/32)")
    top_down = h_raw < 0
    h = abs(h_raw)
    # general stride: rows pad to 32-bit words at ANY depth (the old
    # w*bpp//8 form truncates sub-byte tails, e.g. 33px 1-bit)
    stride = ((w * bpp + 31) // 32) * 4
    if comp in (1, 2):
        if top_down:
            raise ValueError("bmp: RLE bitmaps must be bottom-up per spec")
        if comp == 1:
            idx = _bmp_rle8_decode(data[data_off:], w, h)[::-1]
        else:
            idx = _bmp_rle4_decode(data[data_off:], w, h)[::-1]
    else:
        px = np.frombuffer(data, dtype=np.uint8, count=h * stride, offset=data_off)
        rows = px.reshape(h, stride)
        if not top_down:
            rows = rows[::-1]
        if bpp == 1:
            idx = np.unpackbits(rows, axis=1)[:, :w]
        elif bpp == 4:
            nib = np.empty((h, stride * 2), dtype=np.uint8)
            nib[:, 0::2] = rows >> 4
            nib[:, 1::2] = rows & 0x0F
            idx = nib[:, :w]
        elif bpp == 8:
            idx = rows[:, :w]
        else:
            n_ch = bpp // 8
            bgr = rows[:, : w * n_ch].reshape(h, w, n_ch)
            return rgb_to_gray(bgr[:, :, [2, 1, 0]])
    (n_colors,) = struct.unpack_from("<I", data, 46)
    n_colors = n_colors or (1 << bpp)
    pal = np.frombuffer(
        data, dtype=np.uint8, count=4 * n_colors, offset=14 + hdr_size
    ).reshape(-1, 4)  # BGRA entries
    if int(idx.max(initial=0)) >= len(pal):
        raise ValueError("bmp: palette index out of range")
    rgb = pal[idx][:, :, [2, 1, 0]]
    return rgb_to_gray(rgb)


def _bmp_bitfields_decode(
    data: bytes, data_off: int, hdr_size: int, w: int, h_raw: int, bpp: int
) -> np.ndarray:
    """BI_BITFIELDS (comp=3) 16/32-bit DIBs: per-channel masks sit
    right after a 40-byte BITMAPINFOHEADER or inside a V4/V5 header —
    absolute file offset 54 either way.  Channel values scale to 8 bits
    by rounded linear scaling v*255/mask_max (the alpha mask, if any,
    is ignored like the 32-bit BI_RGB path)."""
    if bpp not in (16, 32):
        raise ValueError(f"bmp: BI_BITFIELDS requires 16/32-bit pixels (got {bpp})")
    if len(data) < 66:
        raise ValueError("bmp: truncated BI_BITFIELDS masks")
    rm, gm, bm = struct.unpack_from("<III", data, 54)
    if not (rm and gm and bm):
        raise ValueError("bmp: BI_BITFIELDS zero channel mask")
    if rm & gm or gm & bm or rm & bm:
        raise ValueError("bmp: BI_BITFIELDS overlapping channel masks")
    for mask in (rm, gm, bm):
        shifted = mask >> ((mask & -mask).bit_length() - 1)
        # the spec requires CONTIGUOUS masks; a sparse mask would also
        # make the uint32 v*255 scaling below overflow silently
        if shifted & (shifted + 1):
            raise ValueError("bmp: BI_BITFIELDS non-contiguous channel mask")
        if mask >= (1 << bpp):
            raise ValueError("bmp: BI_BITFIELDS mask wider than pixel")
    top_down = h_raw < 0
    h = abs(h_raw)
    stride = ((w * bpp // 8) + 3) & ~3
    if data_off + h * stride > len(data):
        raise ValueError("bmp: truncated BI_BITFIELDS pixel data")
    raw = np.frombuffer(data, dtype=np.uint8, count=h * stride, offset=data_off)
    rows = raw.reshape(h, stride)
    if not top_down:
        rows = rows[::-1]
    px = rows[:, : w * (bpp // 8)].reshape(h, w, bpp // 8)
    if bpp == 16:
        vals = px[:, :, 0].astype(np.uint32) | (px[:, :, 1].astype(np.uint32) << 8)
    else:
        vals = (
            px[:, :, 0].astype(np.uint32)
            | (px[:, :, 1].astype(np.uint32) << 8)
            | (px[:, :, 2].astype(np.uint32) << 16)
            | (px[:, :, 3].astype(np.uint32) << 24)
        )
    chans = []
    for mask in (rm, gm, bm):
        shift = (mask & -mask).bit_length() - 1
        mx = mask >> shift
        # uint64: v*255 overflows uint32 for masks wider than 24 bits
        v = ((vals & np.uint32(mask)) >> np.uint32(shift)).astype(np.uint64)
        chans.append(((v * 255 + mx // 2) // mx).astype(np.uint8))
    return rgb_to_gray(np.stack(chans, axis=-1))


def encode_bmp_bitfields(
    img: np.ndarray, bpp: int = 16, masks: tuple[int, int, int] = (0xF800, 0x07E0, 0x001F)
) -> bytes:
    """(h, w) grayscale or (h, w, 3) RGB uint8 -> BI_BITFIELDS BMP
    (fixture writer).  Channel values are scaled DOWN by the inverse of
    the decoder's rounding scale (round(v*mx/255)), so an all-0/255
    image round-trips exactly at any mask width."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=-1)
    h, w, _ = img.shape
    stride = ((w * bpp // 8) + 3) & ~3
    vals = np.zeros((h, w), dtype=np.uint32)
    for ch, mask in enumerate(masks):
        shift = (mask & -mask).bit_length() - 1
        mx = mask >> shift
        # uint64 intermediate: v*mx overflows uint32 past 24-bit masks
        v = (img[:, :, ch].astype(np.uint64) * mx + 127) // 255
        vals |= (v << np.uint64(shift)).astype(np.uint32)
    rows = np.zeros((h, stride), dtype=np.uint8)
    n = bpp // 8
    b = vals[::-1]  # bottom-up
    for i in range(n):
        rows[:, i : w * n : n] = ((b >> np.uint32(8 * i)) & 0xFF).astype(np.uint8)
    data_off = 14 + 40 + 12
    body = rows.tobytes()
    hdr = b"BM" + struct.pack("<IHHI", data_off + len(body), 0, 0, data_off)
    info = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, bpp, 3, len(body), 2835, 2835, 0, 0
    ) + struct.pack("<III", *masks)
    return hdr + info + body


def _bmp_rle8_decode(data: bytes, w: int, h: int) -> np.ndarray:
    """BI_RLE8 -> (h, w) indexed rows in STREAM order (bottom row
    first).  Escapes per the Windows BMP spec: 00 00 = end of line,
    00 01 = end of bitmap, 00 02 dx dy = position delta, 00 n (n>=3) =
    n absolute pixels padded to a word boundary.  Unwritten pixels
    (deltas/short lines) stay index 0 as Windows renders them."""
    out = np.zeros((h, w), dtype=np.uint8)
    x = y = 0
    pos = 0
    n = len(data)
    while pos + 1 < n:
        cnt = data[pos]
        val = data[pos + 1]
        pos += 2
        if cnt > 0:  # encoded run
            if y >= h or x + cnt > w:
                raise ValueError("bmp: RLE8 run overflows row")
            out[y, x:x + cnt] = val
            x += cnt
        elif val == 0:  # end of line
            x = 0
            y += 1
        elif val == 1:  # end of bitmap
            return out
        elif val == 2:  # delta
            if pos + 2 > n:
                raise ValueError("bmp: truncated RLE8 delta")
            x += data[pos]
            y += data[pos + 1]
            pos += 2
            if x > w or y > h:
                raise ValueError("bmp: RLE8 delta out of range")
        else:  # absolute mode
            end = pos + val
            if end > n:
                raise ValueError("bmp: truncated RLE8 absolute run")
            if y >= h or x + val > w:
                raise ValueError("bmp: RLE8 absolute run overflows row")
            out[y, x:x + val] = np.frombuffer(data, np.uint8, val, pos)
            x += val
            pos = end + (val & 1)  # word-aligned
    raise ValueError("bmp: RLE8 stream missing end-of-bitmap")


def _bmp_rle4_decode(data: bytes, w: int, h: int) -> np.ndarray:
    """BI_RLE4 -> (h, w) nibble indices in STREAM order (bottom row
    first).  Encoded runs of n pixels ALTERNATE the byte's two
    nibbles; absolute mode packs n nibbles into ceil(n/2) bytes padded
    to a word boundary; escapes (EOL/EOB/delta) match RLE8.  Unwritten
    pixels stay index 0."""
    out = np.zeros((h, w), dtype=np.uint8)
    x = y = 0
    pos = 0
    n = len(data)
    while pos + 1 < n:
        cnt = data[pos]
        val = data[pos + 1]
        pos += 2
        if cnt > 0:  # encoded run: alternating hi/lo nibbles
            if y >= h or x + cnt > w:
                raise ValueError("bmp: RLE4 run overflows row")
            pair = np.tile(
                np.array([val >> 4, val & 0x0F], dtype=np.uint8), (cnt + 1) // 2
            )
            out[y, x:x + cnt] = pair[:cnt]
            x += cnt
        elif val == 0:  # end of line
            x = 0
            y += 1
        elif val == 1:  # end of bitmap
            return out
        elif val == 2:  # delta
            if pos + 2 > n:
                raise ValueError("bmp: truncated RLE4 delta")
            x += data[pos]
            y += data[pos + 1]
            pos += 2
            if x > w or y > h:
                raise ValueError("bmp: RLE4 delta out of range")
        else:  # absolute mode: val packed nibbles
            nbytes = (val + 1) // 2
            end = pos + nbytes
            if end > n:
                raise ValueError("bmp: truncated RLE4 absolute run")
            if y >= h or x + val > w:
                raise ValueError("bmp: RLE4 absolute run overflows row")
            packed = np.frombuffer(data, np.uint8, nbytes, pos)
            nib = np.empty(nbytes * 2, dtype=np.uint8)
            nib[0::2] = packed >> 4
            nib[1::2] = packed & 0x0F
            out[y, x:x + val] = nib[:val]
            x += val
            pos = end + (nbytes & 1)  # word-aligned
    raise ValueError("bmp: RLE4 stream missing end-of-bitmap")


def _bmp_palette_header(
    w: int, h: int, bpp: int, comp: int, data_len: int
) -> tuple[bytes, int]:
    """BM header + BITMAPINFOHEADER + 16-step grayscale palette for the
    fixture writers (index i -> gray i*255//(2^bpp-1))."""
    n_colors = 1 << bpp
    pal = np.zeros((n_colors, 4), dtype=np.uint8)
    g = (np.arange(n_colors) * 255 // (n_colors - 1)).astype(np.uint8)
    pal[:, 0] = pal[:, 1] = pal[:, 2] = g
    data_off = 14 + 40 + 4 * n_colors
    size = data_off + data_len
    head = b"BM" + struct.pack("<IHHI", size, 0, 0, data_off)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, bpp, comp, data_len, 2835, 2835, n_colors, 0
    )
    return head + dib + pal.tobytes(), data_off


def encode_bmp_rle4(idx: np.ndarray) -> bytes:
    """(h, w) nibble indices (0..15) -> BI_RLE4 BMP with a 16-step
    grayscale palette (fixture writer: long same-nibble encoded runs,
    pairwise encoded runs for literals, EOL per row, EOB)."""
    idx = np.ascontiguousarray(idx, dtype=np.uint8)
    if idx.max(initial=0) > 15:
        raise ValueError("bmp: RLE4 indices must be 0..15")
    h, w = idx.shape
    enc = bytearray()
    for row in idx[::-1]:  # bottom-up stream order
        i = 0
        while i < w:
            run = 1
            while i + run < w and run < 254 and row[i + run] == row[i]:
                run += 1
            if run >= 3:
                v = int(row[i])
                enc += bytes([run, (v << 4) | v])
                i += run
            else:  # emit a pixel pair (or lone tail) as an encoded run
                if i + 1 < w:
                    enc += bytes([2, (int(row[i]) << 4) | int(row[i + 1])])
                    i += 2
                else:
                    enc += bytes([1, int(row[i]) << 4])
                    i += 1
        enc += b"\x00\x00"  # end of line
    enc += b"\x00\x01"  # end of bitmap
    hdr, _ = _bmp_palette_header(w, h, 4, 2, len(enc))
    return hdr + bytes(enc)


def encode_bmp_packed(idx: np.ndarray, bpp: int) -> bytes:
    """(h, w) palette indices -> uncompressed packed 1- or 4-bit BMP
    with a grayscale palette (fixture writer for the sub-byte paths)."""
    if bpp not in (1, 4):
        raise ValueError("bmp: packed writer supports 1/4-bit only")
    idx = np.ascontiguousarray(idx, dtype=np.uint8)
    if idx.max(initial=0) >= (1 << bpp):
        raise ValueError(f"bmp: index out of range for {bpp}-bit")
    h, w = idx.shape
    stride = ((w * bpp + 31) // 32) * 4
    rows = np.zeros((h, stride), dtype=np.uint8)
    if bpp == 1:
        packed = np.packbits(idx, axis=1)
        rows[:, : packed.shape[1]] = packed
    else:
        padded = np.zeros((h, (w + 1) & ~1), dtype=np.uint8)
        padded[:, :w] = idx
        rows[:, : padded.shape[1] // 2] = (padded[:, 0::2] << 4) | padded[:, 1::2]
    body = rows[::-1].tobytes()  # bottom-up
    hdr, _ = _bmp_palette_header(w, h, bpp, 0, len(body))
    return hdr + body


def encode_bmp_rle8(img: np.ndarray) -> bytes:
    """(h, w) grayscale uint8 -> BI_RLE8 BMP (fixture writer: encoded
    runs + absolute runs for literals, EOL per row, EOB at the end)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    enc = bytearray()
    for row in img[::-1]:  # bottom-up stream order
        i = 0
        while i < w:
            run = 1
            while i + run < w and run < 255 and row[i + run] == row[i]:
                run += 1
            if run >= 2:
                enc += bytes([run, int(row[i])])
                i += run
            else:
                j = i + 1
                while j < w and j - i < 255 and not (
                    j + 1 < w and row[j] == row[j + 1]
                ):
                    j += 1
                lit = row[i:j].tobytes()
                if len(lit) >= 3:
                    enc += bytes([0, len(lit)]) + lit
                    if len(lit) & 1:
                        enc += b"\x00"
                else:  # 1-2 literals: encoded runs of length 1
                    for b in lit:
                        enc += bytes([1, b])
                i = j
        enc += b"\x00\x00"  # end of line
    enc += b"\x00\x01"  # end of bitmap
    pal = np.zeros((256, 4), dtype=np.uint8)
    pal[:, 0] = pal[:, 1] = pal[:, 2] = np.arange(256)
    data_off = 14 + 40 + 1024
    size = data_off + len(enc)
    head = b"BM" + struct.pack("<IHHI", size, 0, 0, data_off)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 1, len(enc), 2835, 2835, 256, 0)
    return head + dib + pal.tobytes() + bytes(enc)


def encode_bmp(img: np.ndarray) -> bytes:
    """(h, w) grayscale uint8 -> 8-bit palette bottom-up BMP bytes."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape
    stride = (w + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w] = img[::-1]
    pal = np.zeros((256, 4), dtype=np.uint8)
    pal[:, 0] = pal[:, 1] = pal[:, 2] = np.arange(256)
    data_off = 14 + 40 + 1024
    size = data_off + rows.size
    head = b"BM" + struct.pack("<IHHI", size, 0, 0, data_off)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 0, rows.size, 2835, 2835, 256, 0)
    return head + dib + pal.tobytes() + rows.tobytes()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# TIFF (baseline: uncompressed + PackBits strips)
# ---------------------------------------------------------------------------

TIFF_MAGICS = (b"II*\x00", b"MM\x00*")


def _packbits_decode(data: bytes, expected: int) -> np.ndarray:
    """TIFF PackBits (Apple RLE): control byte n in 0..127 copies n+1
    literals, 129..255 (as signed -1..-127) repeats the next byte
    1-n times, 128 is a no-op.  Stops once ``expected`` bytes are out."""
    out = np.empty(expected, dtype=np.uint8)
    buf = np.frombuffer(data, dtype=np.uint8)
    i = 0
    o = 0
    n_in = len(buf)
    while o < expected:
        if i >= n_in:
            raise ValueError("tiff: truncated PackBits strip")
        n = int(buf[i])
        i += 1
        if n < 128:  # literal run of n+1
            cnt = n + 1
            if i + cnt > n_in or o + cnt > expected:
                raise ValueError("tiff: PackBits literal overruns strip")
            out[o:o + cnt] = buf[i:i + cnt]
            i += cnt
            o += cnt
        elif n > 128:  # replicate next byte 257-n times
            cnt = 257 - n
            if i >= n_in or o + cnt > expected:
                raise ValueError("tiff: PackBits repeat overruns strip")
            out[o:o + cnt] = buf[i]
            i += 1
            o += cnt
        # n == 128: no-op
    return out


def _tiff_tag_values(data: bytes, endian: str, type_: int, count: int, raw: bytes):
    """One IFD entry's values (BYTE/UNDEFINED/SHORT/LONG), inline or at
    offset (UNDEFINED carries opaque bytes, e.g. the JPEGTables blob)."""
    sizes = {1: 1, 3: 2, 4: 4, 7: 1}
    if type_ not in sizes:
        raise NotImplementedError(f"tiff: IFD value type {type_} unsupported")
    total = sizes[type_] * count
    if total <= 4:
        payload = raw[:total]
    else:
        (off,) = struct.unpack(endian + "I", raw)
        payload = data[off:off + total]
        if len(payload) != total:
            raise ValueError("tiff: IFD value offset out of range")
    fmt = {1: "B", 3: "H", 4: "I", 7: "B"}[type_]
    return list(struct.unpack(endian + fmt * count, payload))


def _tiff_lzw_decode(raw: bytes, expected: int, require_full: bool = True) -> np.ndarray:
    """TIFF 6.0 §13 LZW: MSB-first bit packing, Clear=256, EOI=257,
    code width 9→12 with EarlyChange (width bumps one code early, when
    the table reaches 2^width - 1 entries).  require_full=False treats
    `expected` as an upper bound and stops at EOI (the PDF LZWDecode
    caller, where the decoded size is unknown — PDF's default
    EarlyChange=1 is this exact schedule)."""
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    acc = bits = 0
    width = 9
    prev: bytes | None = None
    pos = 0
    n = len(raw)
    while len(out) < expected:
        while bits < width and pos < n:
            acc = (acc << 8) | raw[pos]
            pos += 1
            bits += 8
        if bits < width:
            break
        code = (acc >> (bits - width)) & ((1 << width) - 1)
        bits -= width
        if code == 256:  # Clear
            del table[258:]
            width = 9
            prev = None
            continue
        if code == 257:  # EOI
            break
        if prev is None:
            if code >= len(table):
                raise ValueError("tiff: corrupt LZW stream")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("tiff: corrupt LZW stream")
        out += entry
        prev = entry
        # EarlyChange: the writer's next_code runs one ahead of this
        # table (it assigns after the FIRST post-clear code too), so
        # the read width bumps when len+1 hits 2^width - 1
        if len(table) + 1 == (1 << width) - 1 and width < 12:
            width += 1
    if require_full and len(out) < expected:
        raise ValueError("tiff: LZW strip too short")
    return np.frombuffer(bytes(out[:expected]), dtype=np.uint8)


def _tiff_lzw_encode(data: bytes) -> bytes:
    """Mirror writer for fixtures: same EarlyChange width schedule, a
    Clear whenever the table fills."""
    out = bytearray()
    acc = bits = 0
    width = 9

    def emit(code: int):
        nonlocal acc, bits
        acc = (acc << width) | code
        bits += width
        while bits >= 8:
            out.append((acc >> (bits - 8)) & 0xFF)
            bits -= 8

    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = 258
    emit(256)
    buf = b""
    for i in range(len(data)):
        cand = buf + data[i:i + 1]
        if cand in table:
            buf = cand
            continue
        emit(table[buf])
        buf = data[i:i + 1]
        table[cand] = next_code
        next_code += 1
        if next_code == (1 << width) - 1 and width < 12:  # EarlyChange
            width += 1
        if next_code == 4094:  # table full: restart
            emit(256)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
    if buf:
        emit(table[buf])
    emit(257)
    if bits:
        out.append((acc << (8 - bits)) & 0xFF)
    return bytes(out)


def _tiff_decompress(raw: bytes, nbytes: int, compression: int) -> np.ndarray:
    """One strip/tile payload -> exactly nbytes of sample bytes."""
    if compression == 1:
        out = np.frombuffer(raw, dtype=np.uint8)
        if out.size < nbytes:
            raise ValueError("tiff: uncompressed chunk too short")
        return out[:nbytes]
    if compression == 5:
        return _tiff_lzw_decode(raw, nbytes)
    if compression in (8, 32946):
        # bounded inflate: the chunk's decoded size is known, so a
        # crafted deflate bomb cannot allocate past it (the same
        # OOM class the gzip payload layer guards)
        try:
            inflated = zlib.decompressobj().decompress(bytes(raw), nbytes)
        except zlib.error as exc:
            raise ValueError(f"tiff: corrupt deflate chunk ({exc})") from exc
        if len(inflated) < nbytes:
            raise ValueError("tiff: deflate chunk too short")
        return np.frombuffer(inflated, dtype=np.uint8)
    return _packbits_decode(raw, nbytes)


def _tiff_chunk_grid(tags: dict, w: int, h: int):
    """Iterate (offset, count, y0, x0, eh, ew) chunk regions for either
    layout: fixed-size tiles (322-325) or row strips (273/278/279)."""
    if 322 in tags or 323 in tags:
        try:
            tw, tl = tags[322][0], tags[323][0]
            offsets, counts = tags[324], tags[325]
        except KeyError as exc:
            raise ValueError(f"tiff: tiled image missing tag ({exc})") from exc
        if tw <= 0 or tl <= 0:
            raise ValueError("tiff: bad tile size")
        ta, td = -(-w // tw), -(-h // tl)
        if len(offsets) < ta * td or len(counts) < ta * td:
            raise ValueError("tiff: tile offsets/counts cover fewer tiles than the grid")
        for ti in range(ta * td):
            ty, tx = divmod(ti, ta)
            y0, x0 = ty * tl, tx * tw
            yield offsets[ti], counts[ti], y0, x0, min(tl, h - y0), min(tw, w - x0)
    else:
        try:
            offsets, counts = tags[273], tags[279]
        except KeyError as exc:
            raise ValueError(f"tiff: required tag missing ({exc})") from exc
        rps = tags.get(278, [h])[0] or h
        y0 = 0
        for off, cnt in zip(offsets, counts):
            if y0 >= h:
                break
            yield off, cnt, y0, 0, min(rps, h - y0), w
            y0 += rps
        if y0 < h:
            raise ValueError("tiff: strips cover fewer rows than ImageLength")


def _tiff_jpeg_decode(data: bytes, tags: dict, w: int, h: int) -> np.ndarray:
    """Compression 7 (TIFF-TechNote2 JPEG): each chunk is an SOI..EOI
    stream; tag 347 (JPEGTables) holds shared DQT/DHT segments wrapped
    in their own SOI/EOI, spliced in after each chunk's SOI.  The
    from-scratch JPEG decoder handles the rest (gray or YCbCr collapsed
    through the engine's luma); WhiteIsZero inverts."""
    tbl_mid = b""
    if 347 in tags:
        tb = bytes(tags[347])
        if len(tb) < 4 or tb[:2] != b"\xff\xd8" or tb[-2:] != b"\xff\xd9":
            raise ValueError("tiff: malformed JPEGTables blob")
        tbl_mid = tb[2:-2]
    out = np.zeros((h, w), dtype=np.uint8)
    for off, cnt, y0, x0, eh, ew in _tiff_chunk_grid(tags, w, h):
        raw = data[off:off + cnt]
        if len(raw) != cnt:
            raise ValueError("tiff: JPEG chunk extends past end of file")
        if raw[:2] != b"\xff\xd8":
            raise ValueError("tiff: JPEG chunk without SOI")
        g = decode_jpeg(b"\xff\xd8" + tbl_mid + bytes(raw[2:]))
        if g.shape[0] < eh or g.shape[1] < ew:
            raise ValueError("tiff: JPEG chunk smaller than its region")
        out[y0:y0 + eh, x0:x0 + ew] = g[:eh, :ew]
    if tags.get(262, [1])[0] == 0:  # WhiteIsZero
        out = (255 - out.astype(np.int32)).astype(np.uint8)
    return out


def _tiff_u16_to_u8(rows_bytes: np.ndarray, w: int, spp: int, endian: str) -> np.ndarray:
    """16-bit sample rows (file byte order) -> (h, w, spp) uint8 by
    taking the high byte (the standard 16->8 display reduction)."""
    h = rows_bytes.shape[0]
    u16 = (
        rows_bytes[:, : w * spp * 2]
        .copy()
        .view(np.dtype(("<" if endian == "<" else ">") + "u2"))
    )
    return (u16 >> 8).astype(np.uint8).reshape(h, w, spp)


def _tiff_assemble_tiles(
    data: bytes, tags: dict, w: int, h: int, spp: int, depth: int,
    compression: int, predictor: int, endian: str = "<",
):
    """Tiled layout (tags 322-325): decompress each fixed-size tile
    (edge tiles are padded to full size per TIFF 6.0), undo Predictor-2
    per tile row, and crop into the image grid.  Returns (h, w, spp)
    uint8 samples for depth 8 or an (h, w) 0/1 bit grid for depth 1 —
    the same shapes the strip path feeds the photometric tail."""
    try:
        tw = tags[322][0]
        tl = tags[323][0]
        offsets = tags[324]
        counts = tags[325]
    except KeyError as exc:
        raise ValueError(f"tiff: tiled image missing tag ({exc})") from exc
    if tw <= 0 or tl <= 0:
        raise ValueError("tiff: bad tile size")
    if tags.get(284, [1])[0] != 1:
        raise NotImplementedError("tiff: planar configuration 2 unsupported")
    ta = -(-w // tw)
    td = -(-h // tl)
    if len(offsets) < ta * td or len(counts) < ta * td:
        raise ValueError("tiff: tile offsets/counts cover fewer tiles than the grid")
    tile_stride = -(-tw * spp * depth // 8)
    if depth == 1:
        out = np.zeros((h, w), dtype=np.uint8)
    else:
        out = np.zeros((h, w, spp), dtype=np.uint8)
    for ti in range(ta * td):
        ty, tx = divmod(ti, ta)
        raw = data[offsets[ti]:offsets[ti] + counts[ti]]
        if len(raw) != counts[ti]:
            raise ValueError("tiff: tile extends past end of file")
        rows_bytes = _tiff_decompress(raw, tl * tile_stride, compression).reshape(
            tl, tile_stride
        )
        if predictor == 2:
            if depth != 8:
                raise NotImplementedError("tiff: predictor 2 needs 8-bit samples")
            px0 = rows_bytes[:, : tw * spp].reshape(tl, tw, spp)
            rows_bytes = rows_bytes.copy()
            rows_bytes[:, : tw * spp] = (
                np.cumsum(px0, axis=1, dtype=np.uint64) % 256
            ).astype(np.uint8).reshape(tl, tw * spp)
        y0, x0 = ty * tl, tx * tw
        eh, ew = min(tl, h - y0), min(tw, w - x0)
        if depth == 1:
            bits_arr = np.unpackbits(rows_bytes, axis=1)[:, :tw]
            out[y0:y0 + eh, x0:x0 + ew] = bits_arr[:eh, :ew]
        elif depth == 16:
            px = _tiff_u16_to_u8(rows_bytes, tw, spp, endian)
            out[y0:y0 + eh, x0:x0 + ew] = px[:eh, :ew]
        else:
            px = rows_bytes[:, : tw * spp].reshape(tl, tw, spp)
            out[y0:y0 + eh, x0:x0 + ew] = px[:eh, :ew]
    return out


def decode_tiff(data: bytes) -> np.ndarray:
    """Baseline TIFF bytes -> (h, w) grayscale uint8.

    Supports: uncompressed (1), LZW (5, incl. the horizontal-
    differencing Predictor=2), Deflate (8/32946, via zlib) and
    PackBits (32773) strips AND fixed-size tiles (tags 322-325, edge
    tiles padded per TIFF 6.0); 1- and 8-bit samples; photometric
    WhiteIsZero/BlackIsZero/RGB/Palette; RGBA flattened on white like
    every other codec here (reference's cvt_four_to_three,
    utils.py:133-145).  Planar-separate tiles, JPEG-in-TIFF and 16-bit
    samples raise typed NotImplementedError — the crawl-triage contract
    (named error counts per container feature) rather than a generic
    'unrecognized payload'."""
    if data[:4] not in TIFF_MAGICS:
        raise ValueError("tiff: bad magic")
    endian = "<" if data[:2] == b"II" else ">"
    (ifd_off,) = struct.unpack_from(endian + "I", data, 4)
    if ifd_off + 2 > len(data):
        raise ValueError("tiff: IFD offset out of range")
    try:
        (n_entries,) = struct.unpack_from(endian + "H", data, ifd_off)
        tags: dict[int, list] = {}
        for e in range(n_entries):
            base = ifd_off + 2 + 12 * e
            tag, type_, count = struct.unpack_from(endian + "HHI", data, base)
            tags[tag] = _tiff_tag_values(
                data, endian, type_, count, data[base + 8:base + 12]
            )
    except struct.error as exc:  # truncated IFD: typed contract
        raise ValueError(f"tiff: truncated IFD ({exc})") from exc
    tiled = 322 in tags or 323 in tags
    try:
        w = tags[256][0]
        h = tags[257][0]
        if not tiled:
            strip_offsets = tags[273]
            strip_counts = tags[279]
    except KeyError as exc:
        raise ValueError(f"tiff: required tag missing ({exc})") from exc
    compression = tags.get(259, [1])[0]
    photometric = tags.get(262, [1])[0]
    spp = tags.get(277, [1])[0]
    bits = tags.get(258, [1] * spp)
    rows_per_strip = tags.get(278, [h])[0] or h
    if compression == 7:
        # new-style JPEG-in-TIFF: every strip/tile is a JPEG stream,
        # optionally sharing tables via tag 347; the JPEG decoder owns
        # sample interpretation, so the sample machinery below is skipped
        return _tiff_jpeg_decode(data, tags, w, h)
    if compression not in (1, 5, 8, 32773, 32946):
        raise NotImplementedError(
            f"tiff: compression {compression} unsupported (none/LZW/Deflate/PackBits)"
        )
    predictor = tags.get(317, [1])[0]
    if predictor not in (1, 2):
        raise NotImplementedError(f"tiff: predictor {predictor} unsupported")
    if any(b != bits[0] for b in bits):
        raise NotImplementedError("tiff: mixed bits-per-sample unsupported")
    depth = bits[0]
    if depth not in (1, 8, 16):
        raise NotImplementedError(f"tiff: {depth}-bit samples unsupported")
    if depth == 1 and spp != 1:
        raise NotImplementedError("tiff: 1-bit multi-sample unsupported")
    if depth == 16 and predictor == 2:
        raise NotImplementedError("tiff: predictor 2 on 16-bit samples unsupported")
    if depth == 16 and photometric == 3:
        raise NotImplementedError("tiff: 16-bit palette unsupported")
    if tiled:
        px_or_bits = _tiff_assemble_tiles(
            data, tags, w, h, spp, depth, compression, predictor, endian
        )
    else:
        planar = tags.get(284, [1])[0]
        if planar not in (1, 2):
            raise NotImplementedError(f"tiff: planar configuration {planar} unsupported")
        if planar == 2 and spp > 1:
            # separate planes: strips run plane-by-plane (all R strips,
            # then G, then B); assemble each plane, then interleave.
            # Without this branch a planar file would silently decode
            # as garbage through the chunky path.
            if depth != 8:
                raise NotImplementedError("tiff: planar config 2 needs 8-bit samples")
            spb = -(-h // rows_per_strip)  # strips per plane
            if len(strip_offsets) < spp * spb or len(strip_counts) < spp * spb:
                raise ValueError("tiff: planar strips cover fewer than spp planes")
            stride1 = -(-w * depth // 8)
            planes = []
            for p in range(spp):
                chunks = []
                remaining = h
                for si in range(spb):
                    rows = min(rows_per_strip, remaining)
                    remaining -= rows
                    off = strip_offsets[p * spb + si]
                    cnt = strip_counts[p * spb + si]
                    raw = data[off:off + cnt]
                    if len(raw) != cnt:
                        raise ValueError("tiff: strip extends past end of file")
                    chunks.append(_tiff_decompress(raw, rows * stride1, compression))
                flat = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                plane = flat.reshape(h, stride1)
                if predictor == 2:
                    plane = plane.copy()
                    plane[:, :w] = (
                        np.cumsum(plane[:, :w], axis=1, dtype=np.uint64) % 256
                    ).astype(np.uint8)
                planes.append(plane[:, :w])
            return _tiff_interpret_px(
                np.stack(planes, axis=-1), photometric, spp, tags
            )
        stride = -(-w * spp * depth // 8)  # rows are byte-aligned
        chunks = []
        remaining = h
        for off, cnt in zip(strip_offsets, strip_counts):
            rows = min(rows_per_strip, remaining)
            if rows <= 0:
                break
            remaining -= rows
            raw = data[off:off + cnt]
            if len(raw) != cnt:
                raise ValueError("tiff: strip extends past end of file")
            chunks.append(_tiff_decompress(raw, rows * stride, compression))
        if remaining > 0:
            raise ValueError("tiff: strips cover fewer rows than ImageLength")
        flat = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        rows_bytes = flat.reshape(h, stride)
        if predictor == 2:
            if depth != 8:
                raise NotImplementedError("tiff: predictor 2 needs 8-bit samples")
            # horizontal differencing: undo per row per sample channel
            # (mod-256 prefix sum — vectorized over the whole image)
            px0 = rows_bytes[:, : w * spp].reshape(h, w, spp)
            rows_bytes = rows_bytes.copy()
            rows_bytes[:, : w * spp] = (
                np.cumsum(px0, axis=1, dtype=np.uint64) % 256
            ).astype(np.uint8).reshape(h, w * spp)
        if depth == 1:
            px_or_bits = np.unpackbits(rows_bytes, axis=1)[:, :w]
        elif depth == 16:
            px_or_bits = _tiff_u16_to_u8(rows_bytes, w, spp, endian)
        else:
            px_or_bits = rows_bytes[:, : w * spp].reshape(h, w, spp)
    if depth == 1:
        gray = (px_or_bits * np.uint8(255)).astype(np.uint8)
        if photometric == 0:  # WhiteIsZero
            gray = (255 - gray).astype(np.uint8)
        return gray
    return _tiff_interpret_px(px_or_bits, photometric, spp, tags, depth)


def _tiff_interpret_px(
    px: np.ndarray, photometric: int, spp: int, tags: dict, depth: int = 8
) -> np.ndarray:
    """(h, w, spp) uint8 samples -> grayscale via the photometric tag
    (shared by the chunky, tiled and planar-separate paths)."""
    if photometric in (0, 1):
        gray = px[:, :, 0]
        if photometric == 0:
            gray = (255 - gray.astype(np.int32)).astype(np.uint8)
        return np.ascontiguousarray(gray)
    if photometric == 3:  # palette: ColorMap is 3*2^depth 16-bit values
        cmap = tags.get(320)
        if cmap is None:
            raise ValueError("tiff: palette image without ColorMap")
        n = 1 << depth
        lut = (np.asarray(cmap, dtype=np.uint32).reshape(3, n).T >> 8).astype(
            np.uint8
        )
        return rgb_to_gray(lut[px[:, :, 0]])
    if photometric == 2:  # RGB / RGBA
        if spp == 4:
            return rgb_to_gray(flatten_alpha(np.ascontiguousarray(px)))
        if spp != 3:
            raise NotImplementedError(
                f"tiff: RGB with {spp} samples/pixel unsupported"
            )
        return rgb_to_gray(np.ascontiguousarray(px))
    raise NotImplementedError(f"tiff: photometric {photometric} unsupported")


def _tiff_compress_chunk(chunk: np.ndarray, compression: str) -> bytes:
    """One strip/tile of sample rows -> compressed payload bytes."""
    if compression == "none":
        return chunk.tobytes()
    if compression == "lzw":
        return _tiff_lzw_encode(chunk.tobytes())
    if compression == "deflate":
        return zlib.compress(chunk.tobytes(), 6)
    if compression == "packbits":
        enc = bytearray()
        for row in chunk:  # restart per row, per spec
            i = 0
            n = len(row)
            while i < n:
                run = 1
                while i + run < n and run < 128 and row[i + run] == row[i]:
                    run += 1
                if run >= 2:
                    enc.append(257 - run)
                    enc.append(int(row[i]))
                    i += run
                else:
                    j = i + 1
                    while (
                        j < n
                        and j - i < 128
                        and not (j + 1 < n and row[j] == row[j + 1])
                    ):
                        j += 1
                    enc.append(j - i - 1)
                    enc.extend(row[i:j].tobytes())
                    i = j
        return bytes(enc)
    raise ValueError(f"encode_tiff: unknown compression {compression!r}")


def encode_tiff_tiled(
    img: np.ndarray,
    tile: tuple[int, int] = (16, 16),
    compression: str = "none",
    predictor: int = 1,
) -> bytes:
    """(h, w) gray or (h, w, 3) RGB uint8 -> little-endian TILED TIFF
    (fixture writer for the tile path: edge tiles padded to full size
    per TIFF 6.0, predictor-2 differencing applied per tile row)."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim == 2:
        spp, photometric = 1, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        spp, photometric = 3, 2
    else:
        raise ValueError("encode_tiff_tiled: expected (h,w) or (h,w,3) uint8")
    h, w = img.shape[:2]
    tw, tl = tile
    ta, td = -(-w // tw), -(-h // tl)
    padded = np.zeros((td * tl, ta * tw, spp), dtype=np.uint8)
    padded[:h, :w] = img.reshape(h, w, spp)
    tiles = []
    for ty in range(td):
        for tx in range(ta):
            t = padded[ty * tl:(ty + 1) * tl, tx * tw:(tx + 1) * tw]
            rows = t.reshape(tl, tw * spp)
            if predictor == 2:
                if compression not in ("lzw", "deflate"):
                    raise ValueError("encode_tiff_tiled: predictor 2 needs lzw/deflate")
                px = rows.reshape(tl, tw, spp).astype(np.int16)
                diff = px.copy()
                diff[:, 1:] = px[:, 1:] - px[:, :-1]
                rows = (diff % 256).astype(np.uint8).reshape(tl, tw * spp)
            tiles.append(_tiff_compress_chunk(rows, compression))
    comp_tag = {"none": 1, "lzw": 5, "deflate": 8, "packbits": 32773}[compression]
    header = b"II*\x00"
    offsets = []
    pos = 8
    for t in tiles:
        offsets.append(pos)
        pos += len(t)
    ifd_off = pos
    fields = [
        (256, 4, [w]),
        (257, 4, [h]),
        (258, 3, [8] * spp),
        (259, 3, [comp_tag]),
        (262, 3, [photometric]),
        (277, 3, [spp]),
        (322, 4, [tw]),
        (323, 4, [tl]),
        (324, 4, offsets),
        (325, 4, [len(t) for t in tiles]),
    ]
    if predictor == 2:
        fields.append((317, 3, [2]))
    fields.sort()

    def entry(tag: int, type_: int, values: list[int]) -> tuple[bytes, bytes]:
        fmt = {3: "H", 4: "I"}[type_]
        payload = struct.pack("<" + fmt * len(values), *values)
        if len(payload) <= 4:
            return (
                struct.pack("<HHI", tag, type_, len(values))
                + payload.ljust(4, b"\x00"),
                b"",
            )
        return struct.pack("<HHI", tag, type_, len(values)), payload

    n = len(fields)
    overflow_base = ifd_off + 2 + 12 * n + 4
    entries = []
    overflow = b""
    for tag, type_, values in fields:
        head, extra = entry(tag, type_, values)
        if extra:
            head = head + struct.pack("<I", overflow_base + len(overflow))
            overflow += extra
        entries.append(head)
    ifd = struct.pack("<H", n) + b"".join(entries) + struct.pack("<I", 0)
    return header + struct.pack("<I", ifd_off) + b"".join(tiles) + ifd + overflow


def _jpeg_split_tables(stream: bytes) -> tuple[bytes, bytes]:
    """Split a JPEG stream into (table segments, abbreviated stream):
    DQT/DHT segments move out; everything from SOS on stays verbatim."""
    pos = 2  # past SOI
    tables = b""
    rest = bytearray(b"\xff\xd8")
    while pos + 4 <= len(stream):
        if stream[pos] != 0xFF:
            raise ValueError("jpeg: bad segment marker")
        marker = stream[pos + 1]
        if marker == 0xDA:  # SOS: entropy data follows to EOI
            rest += stream[pos:]
            return tables, bytes(rest)
        (ln,) = struct.unpack(">H", stream[pos + 2:pos + 4])
        seg = stream[pos:pos + 2 + ln]
        if marker in (0xDB, 0xC4):
            tables += seg
        else:
            rest += seg
        pos += 2 + ln
    raise ValueError("jpeg: no SOS segment")


def encode_tiff_jpeg(
    img: np.ndarray,
    rows_per_strip: int = 16,
    tile: tuple[int, int] | None = None,
    quality: int = 90,
    shared_tables: bool = False,
) -> bytes:
    """(h, w) grayscale uint8 -> compression-7 JPEG-in-TIFF (fixture
    writer): per-strip or per-tile baseline JPEG streams via the
    from-scratch encoder; shared_tables moves the (identical) DQT/DHT
    segments into a JPEGTables tag-347 blob, the abbreviated-stream
    layout scanners emit."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("encode_tiff_jpeg: expected (h, w) uint8")
    h, w = img.shape
    chunks = []
    fields_layout: list[tuple[int, int, list[int]]] = []
    if tile is not None:
        tw, tl = tile
        ta, td = -(-w // tw), -(-h // tl)
        # edge-replicate padding (not zeros): keeps 8x8-block-constant
        # inputs constant across the pad, so q=100 stays bit-exact
        padded = np.pad(img, ((0, td * tl - h), (0, ta * tw - w)), mode="edge")
        for ty in range(td):
            for tx in range(ta):
                chunks.append(
                    encode_jpeg(
                        padded[ty * tl:(ty + 1) * tl, tx * tw:(tx + 1) * tw], quality
                    )
                )
        fields_layout = [(322, 4, [tw]), (323, 4, [tl])]
        off_tag, cnt_tag = 324, 325
    else:
        for y0 in range(0, h, rows_per_strip):
            chunks.append(encode_jpeg(img[y0:y0 + rows_per_strip], quality))
        fields_layout = [(278, 4, [rows_per_strip])]
        off_tag, cnt_tag = 273, 279
    tables_blob = b""
    if shared_tables:
        tables, _ = _jpeg_split_tables(chunks[0])
        chunks = [_jpeg_split_tables(c)[1] for c in chunks]
        tables_blob = b"\xff\xd8" + tables + b"\xff\xd9"
    header = b"II*\x00"
    offsets = []
    pos = 8
    for c in chunks:
        offsets.append(pos)
        pos += len(c)
    ifd_off = pos
    fields = [
        (256, 4, [w]),
        (257, 4, [h]),
        (258, 3, [8]),
        (259, 3, [7]),
        (262, 3, [1]),
        (277, 3, [1]),
        (off_tag, 4, offsets),
        (cnt_tag, 4, [len(c) for c in chunks]),
    ] + fields_layout
    if tables_blob:
        fields.append((347, 7, list(tables_blob)))
    fields.sort()

    def entry(tag: int, type_: int, values: list[int]) -> tuple[bytes, bytes]:
        fmt = {3: "H", 4: "I", 7: "B"}[type_]
        payload = struct.pack("<" + fmt * len(values), *values)
        if len(payload) <= 4:
            return (
                struct.pack("<HHI", tag, type_, len(values))
                + payload.ljust(4, b"\x00"),
                b"",
            )
        return struct.pack("<HHI", tag, type_, len(values)), payload

    n = len(fields)
    overflow_base = ifd_off + 2 + 12 * n + 4
    entries = []
    overflow = b""
    for tag, type_, values in fields:
        head, extra = entry(tag, type_, values)
        if extra:
            head = head + struct.pack("<I", overflow_base + len(overflow))
            overflow += extra
        entries.append(head)
    ifd = struct.pack("<H", n) + b"".join(entries) + struct.pack("<I", 0)
    return header + struct.pack("<I", ifd_off) + b"".join(chunks) + ifd + overflow


def encode_tiff(
    img: np.ndarray,
    compression: str = "none",
    photometric: int | None = None,
    predictor: int = 1,
    planar: int = 1,
) -> bytes:
    """(h, w) gray or (h, w, 3) RGB -> little-endian strip TIFF
    (test/debug writer; one strip per 64 rows so multi-strip reads and
    PackBits row restarts are exercised).  uint16 input writes 16-bit
    samples.  compression: "none", "packbits", "lzw" or "deflate";
    predictor=2 applies horizontal differencing (8-bit lzw/deflate
    only, per spec usage)."""
    img = np.asarray(img)
    depth = 16 if img.dtype == np.uint16 else 8
    img = np.ascontiguousarray(img, dtype=np.uint16 if depth == 16 else np.uint8)
    if img.ndim == 2:
        spp = 1
        photometric = 1 if photometric is None else photometric
    elif img.ndim == 3 and img.shape[2] in (3, 4):
        spp = img.shape[2]
        photometric = 2
    else:
        raise ValueError("encode_tiff: expected (h,w) or (h,w,3|4)")
    h, w = img.shape[:2]
    flat_rows = img.reshape(h, w * spp)
    if predictor == 2:
        if compression not in ("lzw", "deflate") or depth != 8:
            raise ValueError("encode_tiff: predictor 2 needs 8-bit lzw/deflate")
        px = flat_rows.reshape(h, w, spp).astype(np.int16)
        diff = px.copy()
        diff[:, 1:] = px[:, 1:] - px[:, :-1]
        flat_rows = (diff % 256).astype(np.uint8).reshape(h, w * spp)
    elif predictor != 1:
        raise ValueError(f"encode_tiff: unknown predictor {predictor}")
    if depth == 16:
        flat_rows = (
            flat_rows.astype("<u2").view(np.uint8).reshape(h, w * spp * 2)
        )
    rows_per_strip = 64
    if planar == 2:
        if depth != 8 or spp < 2:
            raise ValueError("encode_tiff: planar 2 needs 8-bit multi-sample")
        strips = []
        for p in range(spp):
            plane = np.ascontiguousarray(img[:, :, p])
            if predictor == 2:
                d = plane.astype(np.int16)
                d[:, 1:] = d[:, 1:] - plane[:, :-1].astype(np.int16)
                plane = (d % 256).astype(np.uint8)
            strips += [
                _tiff_compress_chunk(plane[y0:y0 + rows_per_strip], compression)
                for y0 in range(0, h, rows_per_strip)
            ]
    elif planar == 1:
        strips = [
            _tiff_compress_chunk(flat_rows[y0:y0 + rows_per_strip], compression)
            for y0 in range(0, h, rows_per_strip)
        ]
    else:
        raise ValueError(f"encode_tiff: unknown planar {planar}")
    comp_tag = {"none": 1, "lzw": 5, "deflate": 8, "packbits": 32773}[compression]

    def entry(tag: int, type_: int, values: list[int]) -> tuple[bytes, bytes]:
        sizes = {3: 2, 4: 4}
        fmt = {3: "H", 4: "I"}[type_]
        payload = struct.pack("<" + fmt * len(values), *values)
        if len(payload) <= 4:
            return (
                struct.pack("<HHI", tag, type_, len(values))
                + payload.ljust(4, b"\x00"),
                b"",
            )
        return struct.pack("<HHI", tag, type_, len(values)), payload

    # layout: header | strip data | IFD | overflow values
    header = b"II*\x00"
    strip_offsets = []
    pos = 8
    for s in strips:
        strip_offsets.append(pos)
        pos += len(s)
    ifd_off = pos
    fields = [
        (256, 4, [w]),
        (257, 4, [h]),
        (258, 3, [depth] * spp),
        (259, 3, [comp_tag]),
        (262, 3, [photometric]),
        (273, 4, strip_offsets),
        (277, 3, [spp]),
        (278, 4, [rows_per_strip]),
        (279, 4, [len(s) for s in strips]),
    ]
    if predictor == 2:
        fields.append((317, 3, [2]))
    if planar == 2:
        fields.append((284, 3, [2]))
        fields.sort()
    n = len(fields)
    overflow_base = ifd_off + 2 + 12 * n + 4
    entries = []
    overflow = b""
    for tag, type_, values in fields:
        head, extra = entry(tag, type_, values)
        if extra:
            head = head + struct.pack("<I", overflow_base + len(overflow))
            overflow += extra
        entries.append(head)
    ifd = struct.pack("<H", n) + b"".join(entries) + struct.pack("<I", 0)
    return (
        header + struct.pack("<I", ifd_off) + b"".join(strips) + ifd + overflow
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def is_webp(payload) -> bool:
    head = bytes(payload[:12])
    return head[:4] == b"RIFF" and head[8:12] == b"WEBP"


def decode_page_image(payload) -> np.ndarray:
    """Any supported page payload -> (h, w) grayscale uint8: RBMP (the
    engine's native format, zero-copy), PNG, GIF, BMP, JPEG
    (baseline + progressive), TIFF (strips + tiles), WebP
    lossless (VP8L).  Unknown bytes raise ValueError (LoadImageError
    analog, utils.py:154); truncated/corrupt containers ALSO surface as
    ValueError, never as raw struct/index/zlib errors — the stage
    callers' ``except (ValueError, NotImplementedError)`` contract
    must hold for any byte string that passes the magic sniff.
    Recognized-but-undecodable containers (WebP lossy/VP8) raise a
    NAMED typed NotImplementedError so crawl triage can count them."""
    if is_rbmp(payload):
        return decode_rbmp(payload)
    head = bytes(payload[:12])
    try:
        if head[:8] == PNG_MAGIC or head[:4] == b"\x89PNG":
            return decode_png(bytes(payload))
        if head[:4] == b"GIF8":
            return decode_gif(bytes(payload))
        if head[:4] in TIFF_MAGICS:
            return decode_tiff(bytes(payload))
        if head[:2] == b"BM":
            return decode_bmp(bytes(payload))
        if head[:3] == b"\xff\xd8\xff":
            return decode_jpeg(bytes(payload))
        if is_webp(payload):
            rgba = decode_webp(bytes(payload))
            if (rgba[:, :, 3] == 255).all():
                return rgb_to_gray(rgba[:, :, :3])
            return rgb_to_gray(flatten_alpha(rgba))
    except (struct.error, IndexError, zlib.error) as exc:
        raise ValueError(f"truncated or corrupt image payload ({exc})") from exc
    raise ValueError("unrecognized image payload")


# ---------------------------------------------------------------------------
# WAV (RIFF PCM / IEEE float audio)
# ---------------------------------------------------------------------------


# G.711 mu-law / A-law (WAVE format tags 7 / 6) — decode tables built
# once from the public ITU G.711 (Sun/CCITT reference) expansion
# algorithm; decode is then a single vectorized table lookup per chunk
def _g711_tables() -> tuple[np.ndarray, np.ndarray]:
    ulaw = np.empty(256, dtype=np.int16)
    for b in range(256):
        u = ~b & 0xFF
        t = (((u & 0x0F) << 3) + 0x84) << ((u & 0x70) >> 4)
        ulaw[b] = (0x84 - t) if u & 0x80 else (t - 0x84)
    alaw = np.empty(256, dtype=np.int16)
    for b in range(256):
        a = b ^ 0x55
        t = (a & 0x0F) << 4
        seg = (a & 0x70) >> 4
        if seg == 0:
            t += 8
        elif seg == 1:
            t += 0x108
        else:
            t = (t + 0x108) << (seg - 1)
        alaw[b] = t if a & 0x80 else -t
    return ulaw, alaw


_ULAW_TABLE, _ALAW_TABLE = _g711_tables()


# MS ADPCM (WAVE format tag 2) — public Microsoft WAVE spec tables
_MS_COEF1 = np.array([256, 512, 0, 192, 240, 460, 392], dtype=np.int64)
_MS_COEF2 = np.array([0, -256, 0, 64, 0, -208, -232], dtype=np.int64)
_MS_ADAPT = np.array(
    [230, 230, 230, 230, 307, 409, 512, 614, 768, 614, 512, 409, 307, 230, 230, 230],
    dtype=np.int64,
)


def _trunc_div_256(x: np.ndarray) -> np.ndarray:
    """C-style truncating /256 (toward zero) — the spec's pseudo-code
    division; >>8 would floor negatives one off."""
    return np.where(x >= 0, x >> 8, -((-x) >> 8))


def _decode_ms_adpcm(raw: bytes, n_ch: int, block_align: int) -> np.ndarray:
    """MS ADPCM 'data' chunk -> interleaved int16 frames (n_frames,
    n_ch), vectorized across blocks.  Block layout per the Microsoft
    WAVE spec: per channel 1-byte predictor index, int16 delta, int16
    sample1, int16 sample2 (header 7*n_ch bytes), then 4-bit nibbles
    high-first, round-robin across channels; output starts with
    sample2 (older) then sample1."""
    if n_ch not in (1, 2):
        raise NotImplementedError(f"wav: {n_ch}-channel MS ADPCM unsupported")
    if block_align <= 7 * n_ch:
        raise ValueError(f"wav: bad MS ADPCM block_align {block_align}")
    usable = (len(raw) // block_align) * block_align
    if usable == 0:
        raise ValueError("wav: MS ADPCM data shorter than one block")
    blocks = np.frombuffer(raw[:usable], dtype=np.uint8).reshape(-1, block_align)
    nb = len(blocks)

    def i16(col: int) -> np.ndarray:
        v = blocks[:, col].astype(np.int64) | (blocks[:, col + 1].astype(np.int64) << 8)
        return np.where(v >= 32768, v - 65536, v)

    pred_idx = [blocks[:, c].astype(np.int64) for c in range(n_ch)]
    for p in pred_idx:
        if (p >= 7).any():
            raise ValueError("wav: MS ADPCM predictor index out of range")
    delta = [i16(n_ch + 2 * c) for c in range(n_ch)]
    s1 = [i16(3 * n_ch + 2 * c) for c in range(n_ch)]
    s2 = [i16(5 * n_ch + 2 * c) for c in range(n_ch)]
    body = blocks[:, 7 * n_ch:]
    nib = np.empty((nb, body.shape[1] * 2), dtype=np.int64)
    nib[:, 0::2] = body >> 4  # high nibble FIRST (spec)
    nib[:, 1::2] = body & 0x0F
    total_nib = nib.shape[1]  # nibbles alternate channels per sample
    per_block = 2 + total_nib // n_ch  # frames per block per channel
    out = np.empty((nb, per_block, n_ch), dtype=np.int16)
    c1 = [_MS_COEF1[p] for p in pred_idx]
    c2 = [_MS_COEF2[p] for p in pred_idx]
    for c in range(n_ch):
        out[:, 0, c] = s2[c].astype(np.int16)
        out[:, 1, c] = s1[c].astype(np.int16)
    for t in range(total_nib):
        c = t % n_ch
        n = nib[:, t]
        pred = _trunc_div_256(s1[c] * c1[c] + s2[c] * c2[c])
        signed = np.where(n < 8, n, n - 16)
        samp = np.clip(pred + signed * delta[c], -32768, 32767)
        s2[c] = s1[c]
        s1[c] = samp
        delta[c] = np.maximum(16, _trunc_div_256(_MS_ADAPT[n] * delta[c]))
        out[:, 2 + t // n_ch, c] = samp.astype(np.int16)
    return out.reshape(-1, n_ch)


# IMA/DVI ADPCM (WAVE format tag 0x11) — public IMA spec tables
_IMA_STEP = np.array(
    [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
     41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
     190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
     724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
     2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
     6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
     16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767],
    dtype=np.int32,
)
_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)


def _ima_decode_nibbles(nib: np.ndarray, pred: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Vectorized-across-blocks IMA ADPCM inner loop: ``nib`` is
    (n_blocks, n_nibbles) uint8, ``pred``/``idx`` the per-block header
    predictor (int32) and step index (int32).  Returns (n_blocks,
    n_nibbles + 1) int16 — header predictor is the first output sample
    (IMA spec); the sequential dependency is per block only, so the
    loop runs once per within-block position, vectorized over blocks."""
    n_blocks, n_nib = nib.shape
    out = np.empty((n_blocks, n_nib + 1), dtype=np.int16)
    out[:, 0] = pred.astype(np.int16)
    idx = np.clip(idx, 0, 88)
    for t in range(n_nib):
        step = _IMA_STEP[idx]
        b = nib[:, t].astype(np.int32)
        diff = (
            (step >> 3)
            + np.where(b & 4, step >> 2, 0)
            + np.where(b & 2, step >> 1, 0)
            + np.where(b & 1, step, 0)
        )
        pred = np.clip(pred + np.where(b & 8, -diff, diff), -32768, 32767)
        out[:, t + 1] = pred.astype(np.int16)
        idx = np.clip(idx + _IMA_INDEX[b & 7], 0, 88)
    return out


def _decode_ima_adpcm(raw: bytes, n_ch: int, block_align: int) -> np.ndarray:
    """IMA ADPCM 'data' chunk -> interleaved int16 sample frames,
    shape (n_frames, n_ch).  Block layout per the IMA/Microsoft WAVE
    spec: a 4-byte header per channel (int16 predictor, uint8 step
    index, reserved), then 4-byte nibble groups round-robin across
    channels; low nibble first within each byte."""
    if n_ch not in (1, 2):
        raise NotImplementedError(f"wav: {n_ch}-channel IMA ADPCM unsupported")
    if block_align < 4 * n_ch or (block_align - 4 * n_ch) % (4 * n_ch):
        raise ValueError(f"wav: bad IMA ADPCM block_align {block_align}")
    usable = (len(raw) // block_align) * block_align
    if usable == 0:
        raise ValueError("wav: IMA ADPCM data shorter than one block")
    blocks = np.frombuffer(raw[:usable], dtype=np.uint8).reshape(-1, block_align)
    chans = []
    for c in range(n_ch):
        hdr = blocks[:, 4 * c:4 * c + 4]
        pred = (hdr[:, 0].astype(np.int32) | (hdr[:, 1].astype(np.int32) << 8))
        pred = np.where(pred >= 32768, pred - 65536, pred)
        idx = hdr[:, 2].astype(np.int32)
        if (idx > 88).any():
            raise ValueError("wav: IMA ADPCM step index out of range")
        body = blocks[:, 4 * n_ch:].reshape(len(blocks), -1, 4 * n_ch)
        mine = body[:, :, 4 * c:4 * c + 4].reshape(len(blocks), -1)
        nib = np.empty((len(blocks), mine.shape[1] * 2), dtype=np.uint8)
        nib[:, 0::2] = mine & 0x0F
        nib[:, 1::2] = mine >> 4
        chans.append(_ima_decode_nibbles(nib, pred, idx))
    per_block = chans[0].shape[1]
    out = np.empty((len(blocks) * per_block, n_ch), dtype=np.int16)
    for c, ch in enumerate(chans):
        out[:, c] = ch.reshape(-1)
    return out


def decode_wav(data: bytes) -> tuple[np.ndarray, int, int]:
    """RIFF/WAVE bytes -> (mono float32 samples in [-1, 1], sample_rate,
    n_channels).  PCM 8/16/32-bit integer, 32-bit IEEE float, and IMA
    ADPCM (tag 0x11, mono/stereo, decoded vectorized across blocks);
    multi-channel downmixes by mean.  Remaining compressed codecs (MS
    ADPCM, mp3 inside RIFF, ...) raise typed NotImplementedError."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("wav: bad RIFF/WAVE signature")
    pos = 12
    fmt = None
    raw = None
    n_fact_frames = None
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
        if cid == b"fmt ":
            try:
                fmt = struct.unpack_from("<HHIIHH", body, 0)
            except struct.error as exc:
                raise ValueError(f"wav: truncated fmt chunk ({exc})") from exc
        elif cid == b"data":
            raw = body
        elif cid == b"fact" and len(body) >= 4:
            (n_fact_frames,) = struct.unpack_from("<I", body, 0)
    if fmt is None or raw is None:
        raise ValueError("wav: missing fmt/data chunk")
    tag, n_ch, rate, _byte_rate, block_align, bits = fmt
    if tag == 1:  # integer PCM
        if bits == 8:
            x = (np.frombuffer(raw, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
        elif bits == 16:
            x = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
        elif bits == 32:
            x = np.frombuffer(raw, dtype="<i4").astype(np.float32) / 2147483648.0
        else:
            raise NotImplementedError(f"wav: {bits}-bit PCM unsupported (8/16/32)")
    elif tag == 3 and bits == 32:  # IEEE float
        x = np.frombuffer(raw, dtype="<f4").astype(np.float32)
    elif tag in (6, 7):  # G.711 A-law / mu-law
        if bits not in (0, 8):
            raise NotImplementedError(f"wav: G.711 with {bits}-bit samples unsupported")
        table = _ALAW_TABLE if tag == 6 else _ULAW_TABLE
        x = table[np.frombuffer(raw, dtype=np.uint8)].astype(np.float32) / 32768.0
    elif tag in (2, 0x11):  # MS ADPCM / IMA-DVI ADPCM
        if bits != 4:
            raise NotImplementedError(
                f"wav: {'MS' if tag == 2 else 'IMA'} ADPCM with {bits}-bit samples unsupported"
            )
        dec = _decode_ms_adpcm if tag == 2 else _decode_ima_adpcm
        frames = dec(raw, max(1, n_ch), block_align)
        if n_fact_frames is not None:
            frames = frames[:n_fact_frames]
        x = frames.astype(np.float32).reshape(-1) / 32768.0
    else:
        raise NotImplementedError(f"wav: format tag {tag}/{bits}-bit unsupported")
    n_ch = max(1, n_ch)
    x = x[: (len(x) // n_ch) * n_ch].reshape(-1, n_ch)
    return x.mean(axis=1).astype(np.float32), rate, n_ch


def encode_wav_pcm(
    samples: np.ndarray, fmt: str, sample_rate: int = 8000, n_channels: int = 1
) -> bytes:
    """Typed-width RIFF/WAVE writer for the cross-codec dedup fixtures:
    ``fmt`` one of u8 (8-bit PCM), i16, i32 (integer PCM), f32 (IEEE
    float).  ``samples`` must already be in the target dtype/interleave
    (callers pick values whose decode is bit-identical across widths —
    see q_audio_sample_dup_groups)."""
    dt = {"u8": np.uint8, "i16": "<i2", "i32": "<i4", "f32": "<f4"}[fmt]
    tag = 3 if fmt == "f32" else 1
    bits = {"u8": 8, "i16": 16, "i32": 32, "f32": 32}[fmt]
    raw = np.asarray(samples).astype(dt).tobytes()
    block = (bits // 8) * n_channels
    fmt_chunk = struct.pack(
        "<HHIIHH", tag, n_channels, sample_rate, sample_rate * block, block, bits
    )
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        + b"data" + struct.pack("<I", len(raw)) + raw
    )
    if len(raw) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def encode_wav(samples: np.ndarray, sample_rate: int, n_channels: int = 1) -> bytes:
    """float samples in [-1, 1] (flat mono or (n, ch)) -> 16-bit PCM
    RIFF/WAVE bytes (test/debug writer)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
        n_channels = 1
    pcm = np.clip(np.rint(arr * 32767.0), -32768, 32767).astype("<i2")
    raw = pcm.tobytes()
    block = 2 * n_channels
    fmt = struct.pack("<HHIIHH", 1, n_channels, sample_rate,
                      sample_rate * block, block, 16)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(raw)) + raw
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body
