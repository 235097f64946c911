"""Multimodal column stages: image/audio/video as opaque binary columns
with typed metadata.  Each stage is a callable instance that holds only
its column names; ``map_batches`` runs it as a task map (no actor
pool), as the extraction plan runs ``CascadeStage``.

The container ships no cv2/PIL/ffmpeg, so PNG, GIF, BMP, baseline JPEG
and RIFF/WAV audio are decoded by the from-scratch pure-numpy codecs in
``functions.codecs`` / ``functions.jpeg`` (public format specs over
stdlib zlib); RBMP (our deterministic in-repo format) decodes
zero-copy.  Only real VIDEO containers remain STUBBED behind
``NotImplementedError`` — the typed error column marks exactly where an
ffmpeg codec goes in production.

Stages:
- ``ImageDecodeStage``: binary -> (height, width, n_ink_pixels, ok, err)
- ``ImageFeatureStage``: binary -> fixed-size feature vector
  (row/col ink-profile histogram — a deterministic stand-in for a CNN
  embedding)
- ``AudioFeatureStage``: RIFF/WAV payloads (real pure-numpy PCM/float
  decode) -> (sample_rate, n_channels, duration_us, rms_scaled);
  compressed audio codecs surface as typed error columns.
- ``frame_sample``: RBMP "videos" (concatenated RBMP frames) sample
  every k-th frame; real video containers (mp4/mkv/...) raise
  NotImplementedError inside the typed error column — the one
  remaining stubbed decode in the engine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# NOTE: every name a WORKER-side body needs must be bound at module
# level — the module can ship by value (cloudpickle), so a late
# `from rapidocr_ray...` import inside __call__ would do a real import
# on the worker and fail when the driver's CWD is not the repo.
from rapidocr_ray import glyphs
from rapidocr_ray.functions.avi import avi_frame_scan_sample, is_avi
from rapidocr_ray.functions.codecs import (
    decode_page_image,
    decode_wav,
    gif_frame_scan_sample,
)
from rapidocr_ray.glyphs import decode_rbmp, is_rbmp
from rapidocr_ray.util import ensure_worker_importable

# RIFF is audio, not an image: the IMAGE decode path stubs it with a
# typed error (AudioFeatureStage decodes it for real via decode_wav).
# EXCEPT WebP, which is a RIFF container too — disambiguated by fourcc
# so crawl triage counts "webp" separately from "riff/wav".
KNOWN_REAL_FORMATS = {
    b"RIFF": "riff/wav",
}


def _sniff(payload: bytes) -> str | None:
    if payload[:4] == b"RIFF" and bytes(payload[8:12]) == b"WEBP":
        # all WebP falls through to decode_page_image: VP8L decodes for
        # real, and decode_webp itself raises the correctly-NAMED typed
        # stub for lossy VP8 or animated containers (naming here would
        # mislabel animated as lossy)
        return None
    for magic, name in KNOWN_REAL_FORMATS.items():
        if payload[: len(magic)] == magic:
            return name
    return None


def _iter_payload_buffers(batch: pa.Table, col: str):
    """Zero-copy payload iteration: yields arrow buffers (not python
    bytes copies) for each row; nulls yield b''."""
    arr = batch.column(col).combine_chunks()
    for i in range(len(arr)):
        v = arr[i]
        yield v.as_buffer() if v.is_valid else b""


def decode_image(payload) -> np.ndarray:
    """Decode an image payload (S1 analog,
    python/rapidocr_onnxruntime/utils.py:94-152).  RBMP zero-copy;
    PNG/GIF/BMP/baseline-JPEG via the pure-numpy codecs; audio/video
    stubbed with a typed NotImplementedError."""
    if is_rbmp(payload):
        return decode_rbmp(payload)
    fmt = _sniff(payload)
    if fmt is not None:
        raise NotImplementedError(
            f"codec for {fmt} not available in this environment (stub)"
        )
    return decode_page_image(payload)


class ImageDecodeStage:
    """Binary payload column -> image metadata."""

    def __init__(self, payload_col: str = "html"):
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        heights, widths, inks, oks, errs = [], [], [], [], []
        for payload in _iter_payload_buffers(batch, self.payload_col):
            try:
                img = decode_image(payload)
                heights.append(img.shape[0])
                widths.append(img.shape[1])
                inks.append(int((img > 127).sum()))
                oks.append(True)
                errs.append(None)
            except (ValueError, NotImplementedError) as exc:
                heights.append(None)
                widths.append(None)
                inks.append(None)
                oks.append(False)
                errs.append(str(exc))
        out = batch.drop_columns([self.payload_col])
        for name, vals, typ in (
            ("height", heights, pa.int32()),
            ("width", widths, pa.int32()),
            ("n_ink", inks, pa.int64()),
            ("decode_ok", oks, pa.bool_()),
            ("decode_err", errs, pa.string()),
        ):
            out = out.append_column(name, pa.array(vals, type=typ))
        return out


class ImageFeatureStage:
    """Image payload -> fixed-size float32 feature vector (normalized
    16-bin row + 16-bin col ink profiles), the stand-in for batched CNN
    inference."""

    N_BINS = 16

    def __init__(self, payload_col: str = "html"):
        self.payload_col = payload_col

    def _features(self, img: np.ndarray) -> np.ndarray:
        ink = (img > 127).astype(np.float64)
        total = max(1.0, ink.sum())
        rows = ink.sum(axis=1)
        cols = ink.sum(axis=0)

        def profile(v: np.ndarray) -> np.ndarray:
            bins = np.array_split(v, self.N_BINS)
            return np.array([b.sum() for b in bins]) / total

        return np.concatenate([profile(rows), profile(cols)]).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, oks = [], []
        for payload in _iter_payload_buffers(batch, self.payload_col):
            try:
                img = decode_image(payload)
                feats.append(self._features(img).tolist())
                oks.append(True)
            except (ValueError, NotImplementedError):
                feats.append(None)
                oks.append(False)
        out = batch.drop_columns([self.payload_col])
        out = out.append_column(
            "features", pa.array(feats, type=pa.list_(pa.float32()))
        )
        out = out.append_column("decode_ok", pa.array(oks, type=pa.bool_()))
        return out


_BINS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("kind", pa.string()),
        ("bin", pa.int64()),
        ("ink_scaled", pa.int64()),
    ]
)


class ImageFeatureBinsStage:
    """Image payload -> EXACT integer-scaled profile bins in long
    format, one row per (kind in {row, col}, bin 0..15).

    Same ink profiles as ImageFeatureStage but kept in integer
    arithmetic end-to-end: ink_scaled = round_half_up(1e6 * bin_ink /
    total_ink) computed as (2e6*bin + total) // (2*total) — bit-exact
    reproducible by an integer-only SQL oracle (no float32 rounding in
    the comparison surface).  Non-decodable payloads emit no rows."""

    N_BINS = 16
    SCALE = 1_000_000

    def __init__(self, payload_col: str = "html", key_col: str = "url"):
        self.payload_col = payload_col
        self.key_col = key_col

    def _bins(self, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ink = img > 127
        total = max(1, int(ink.sum()))
        out = []
        for v in (ink.sum(axis=1), ink.sum(axis=0)):
            b = np.array(
                [chunk.sum() for chunk in np.array_split(v, self.N_BINS)],
                dtype=np.int64,
            )
            out.append((2 * self.SCALE * b + total) // (2 * total))
        return out[0], out[1]

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, kinds, bins, vals = [], [], [], []
        for key, payload in zip(
            batch.column(self.key_col).to_pylist(),
            _iter_payload_buffers(batch, self.payload_col),
        ):
            try:
                img = decode_image(payload)
            except (ValueError, NotImplementedError):
                continue
            row_bins, col_bins = self._bins(img)
            for kind, b in (("row", row_bins), ("col", col_bins)):
                keys.extend([key] * self.N_BINS)
                kinds.extend([kind] * self.N_BINS)
                bins.extend(range(self.N_BINS))
                vals.extend(int(x) for x in b)
        return pa.table(
            {"url": keys, "kind": kinds, "bin": bins, "ink_scaled": vals},
            schema=_BINS_SCHEMA,
        )


def image_feature_bins_pipeline(ds, payload_col: str = "html"):
    ensure_worker_importable()
    return ds.map_batches(
        ImageFeatureBinsStage(payload_col), batch_format="pyarrow", batch_size=32
    )


def image_metadata_pipeline(ds, payload_col: str = "html"):
    """pages-style Dataset -> per-row image metadata via the decode
    task map (small batches: multi-KB..MB binary rows)."""
    ensure_worker_importable()
    return ds.map_batches(
        ImageDecodeStage(payload_col), batch_format="pyarrow", batch_size=32
    )


def image_feature_pipeline(ds, payload_col: str = "html"):
    ensure_worker_importable()
    return ds.map_batches(
        ImageFeatureStage(payload_col), batch_format="pyarrow", batch_size=32
    )


class AudioFeatureStage:
    """RIFF/WAV binary payload -> deterministic audio metadata/features
    (duration_us, sample_rate, n_channels, rms_scaled = round(1e6 * RMS
    of the mono downmix)), the stand-in for a batched audio-embedding
    model stage; non-audio / compressed payloads emit typed error
    columns."""

    def __init__(self, payload_col: str = "html"):
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        rates, chans, durs, rms, oks, errs = [], [], [], [], [], []
        for payload in _iter_payload_buffers(batch, self.payload_col):
            try:
                mono, rate, n_ch = decode_wav(bytes(payload))
                rates.append(rate)
                chans.append(n_ch)
                durs.append(int(round(1e6 * len(mono) / max(1, rate))))
                rms.append(
                    int(round(1e6 * float(np.sqrt(np.mean(mono**2)))))
                    if len(mono)
                    else 0
                )
                oks.append(True)
                errs.append(None)
            except (ValueError, NotImplementedError) as exc:
                rates.append(None)
                chans.append(None)
                durs.append(None)
                rms.append(None)
                oks.append(False)
                errs.append(str(exc))
        out = batch.drop_columns([self.payload_col])
        for name, vals, typ in (
            ("sample_rate", rates, pa.int32()),
            ("n_channels", chans, pa.int32()),
            ("duration_us", durs, pa.int64()),
            ("rms_scaled", rms, pa.int64()),
            ("decode_ok", oks, pa.bool_()),
            ("decode_err", errs, pa.string()),
        ):
            out = out.append_column(name, pa.array(vals, type=typ))
        return out


def audio_feature_pipeline(ds, payload_col: str = "html"):
    ensure_worker_importable()
    return ds.map_batches(
        AudioFeatureStage(payload_col), batch_format="pyarrow", batch_size=64
    )


class FrameSampleStage:
    """RBMP frame-stream payload column -> per-video sampled-frame stats
    (every-k temporal sampling): total frame count, sampled count, and
    the integer ink sum over the sampled frames — the stand-in for a
    frame-embedding stage (decode once per payload, aggregate
    in-kernel).  Non-RBMP
    payloads emit typed error columns (the ffmpeg-less stub contract,
    see ``frame_sample``)."""

    def __init__(self, payload_col: str = "video", every_k: int = 2):
        self.payload_col = payload_col
        self.every_k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_frames, n_sampled, inks, oks, errs = [], [], [], [], []
        for payload in _iter_payload_buffers(batch, self.payload_col):
            try:
                # header-scan: total count comes free from the walk,
                # only every k-th frame is actually decoded
                total, sampled = frame_scan_sample(
                    bytes(payload), every_k=self.every_k
                )
                n_frames.append(total)
                n_sampled.append(len(sampled))
                inks.append(int(sum(int(f.sum(dtype=np.int64)) for f in sampled)))
                oks.append(True)
                errs.append(None)
            except (ValueError, NotImplementedError) as exc:
                n_frames.append(None)
                n_sampled.append(None)
                inks.append(None)
                oks.append(False)
                errs.append(str(exc))
        out = batch.drop_columns([self.payload_col])
        for name, vals, typ in (
            ("n_frames", n_frames, pa.int64()),
            ("n_sampled", n_sampled, pa.int64()),
            ("ink_sampled", inks, pa.int64()),
            ("decode_ok", oks, pa.bool_()),
            ("decode_err", errs, pa.string()),
        ):
            out = out.append_column(name, pa.array(vals, type=typ))
        return out


def frame_stats_pipeline(ds, payload_col: str = "video", every_k: int = 2):
    ensure_worker_importable()
    return ds.map_batches(
        FrameSampleStage(payload_col, every_k), batch_format="pyarrow", batch_size=64
    )


def frame_scan_sample(
    payload: bytes, every_k: int = 2, _decode=None
) -> tuple[int, list[np.ndarray]]:
    """Header-scan temporal sampling (VERDICT r4 #3): walk the RBMP
    frame headers (an O(1) h·w skip per frame — the point of temporal
    sampling at real video scale) and DECODE ONLY every k-th frame.
    Returns (total_frame_count, sampled_decoded_frames).  Real video
    containers raise the typed stub error (no ffmpeg in this
    environment — this is the engine's one remaining stubbed decode).
    ``_decode`` is a test hook (defaults to decode_rbmp) so a unit test
    can count decode calls and assert skipped frames are never
    decoded."""
    import struct

    if is_avi(payload):
        # real container path: AVI demux (header-only chunk walk) with
        # MJPG frames through the from-scratch JPEG decoder; non-MJPG
        # codecs raise the typed stub inside avi_frame_scan_sample
        # (module-level import — a call-time absolute import would fail
        # inside by-value workers launched from a non-repo CWD)
        return avi_frame_scan_sample(payload, every_k=every_k, _decode=_decode)
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        # animated GIF: sub-block size hops skip unsampled frames;
        # partial/transparent animation frames are typed errors
        # (module-level import, same by-value-worker rule as avi)
        return gif_frame_scan_sample(payload, every_k=every_k)
    if not is_rbmp(payload):
        raise NotImplementedError(
            "video codec unavailable (only RBMP and AVI/MJPG streams decode)"
        )
    decode = _decode or decode_rbmp
    frames = []
    pos = 0
    idx = 0
    hsize = glyphs._HEADER_SIZE
    total = len(payload)
    while pos < total:
        # every frame is VALIDATED (magic + full-frame bounds) even
        # when skipped — the old full-decode path rejected corrupt
        # non-sampled frames, and so must the header scan; a bad
        # header or truncated tail is a typed error row, never
        # silently-wrong stats
        if pos + hsize > total:
            raise ValueError("rbmp video: truncated frame header")
        try:
            magic, h, w = struct.unpack_from(glyphs._HEADER_FMT, payload, pos)
        except struct.error as exc:  # pragma: no cover — length-guarded
            raise ValueError(f"rbmp video: bad frame header ({exc})") from exc
        if magic != glyphs.MAGIC:
            raise ValueError("rbmp video: frame magic mismatch (desynced stream)")
        end = pos + hsize + h * w
        if end > total:
            raise ValueError("rbmp video: truncated frame payload")
        if idx % every_k == 0:
            frames.append(decode(payload[pos:end]))
        pos = end
        idx += 1
    return idx, frames


def frame_sample(payload: bytes, every_k: int = 2) -> list[np.ndarray]:
    """Back-compat wrapper over ``frame_scan_sample`` returning only
    the sampled frames (skipped frames are header-scanned, not
    decoded)."""
    return frame_scan_sample(payload, every_k=every_k)[1]
