"""The det -> cls -> rec cascade stage objects (T5 analogs,
ch_ppocr_v3_det/text_detect.py:28-58, ch_ppocr_v2_cls/text_cls.py:28-35,
ch_ppocr_v3_rec/text_recognize.py:27-38).

These are per-document/per-crop-list APIs.  The Ray stages
(stages/ray_stages.py) and the single-process oracle
(pipelines/oracle.py) both call EXACTLY these objects, so distributed
vs sequential execution can only differ in orchestration, never in
math — that is what the byte-identical per-url invariant tests.
"""

from __future__ import annotations

import math

import numpy as np

from rapidocr_ray.config import ClsConfig, DetConfig, RecConfig
from rapidocr_ray.functions.ctc import ctc_greedy_decode
from rapidocr_ray.functions.imgproc import (
    db_postprocess,
    det_resize,
    det_resize_ink,
    filter_det_boxes,
    normalize_ch0,
    normalize_chw,
    resize_bilinear,
    rotate180,
)
from rapidocr_ray.glyphs import GLYPH_H
from rapidocr_ray.state.models import ModelRegistry


class TextDetector:
    """M1-M7: resize -> normalize -> det kernel -> DB post-process -> filter."""

    def __init__(self, cfg: DetConfig, registry: ModelRegistry | None = None):
        self.cfg = cfg
        self.registry = registry or ModelRegistry()

    def __call__(self, img: np.ndarray, lang: str = "en") -> np.ndarray:
        """gray uint8 [H, W] -> boxes int32 [N, 4, 2] (source frame)."""
        c = self.cfg
        model = self.registry.for_lang("det", lang)
        fast = getattr(model, "infer_ink", None) is not None
        try:
            if fast:
                # fast entry: threshold inside the resize (det_resize_ink)
                ink, shape_info = det_resize_ink(img, c.limit_side_len, c.limit_type)
            else:
                resized, shape_info = det_resize(img, c.limit_side_len, c.limit_type)
        except ValueError:
            return np.zeros((0, 4, 2), dtype=np.int32)
        if fast:
            # skip the normalize/invert float32 round trip (bit-identical
            # — DetModel.infer_ink docstring)
            pred = model.infer_ink(ink)
        else:  # contract path: NCHW batch of 1 (text_detect.py:72);
            # channel dim broadcast — the kernel reads channel 0 only
            ch0 = normalize_ch0(resized)
            tensor = np.broadcast_to(ch0[None, None], (1, 3) + ch0.shape)
            pred = model.infer(tensor)[0, 0]
        boxes, _scores = db_postprocess(
            pred,
            shape_info,
            thresh=c.thresh,
            box_thresh=c.box_thresh,
            max_candidates=c.max_candidates,
            unclip_ratio=c.unclip_ratio,
            use_dilation=c.use_dilation,
            min_box_side=c.min_box_side,
            score_mode=c.score_mode,
        )
        return filter_det_boxes(boxes, img.shape[0], img.shape[1])


def cls_resize_norm(img: np.ndarray, shape: tuple = (3, 48, 192)) -> np.ndarray:
    """M10 (ch_ppocr_v2_cls/text_cls.py:76-97): resize to h, keep aspect,
    w capped at imgW; /255, -0.5/0.5; zero-pad right to imgW."""
    _imgC, imgH, imgW = shape
    h, w = img.shape[:2]
    ratio = w / float(h)
    resized_w = imgW if math.ceil(imgH * ratio) > imgW else int(math.ceil(imgH * ratio))
    resized = resize_bilinear(img, imgH, resized_w).astype(np.float32)
    resized = resized / 255.0
    resized = (resized - 0.5) / 0.5
    out = np.full((3, imgH, imgW), 0.0, dtype=np.float32)
    out[:, :, :resized_w] = resized[None, :, :]
    return out


class TextClassifier:
    """M10-M12 + M16: width-sort, micro-batch, resize/norm, argmax over
    ('0','180'), conditional 180-degree rotate, scatter-back.

    A session with the ``infer_crops`` fast entry gets each micro-batch
    as uint8 crops and resizes it in one batched pass; the others get
    the M10 NCHW tensors.  Both give bit-identical probabilities
    (ClsModel.infer_crops docstring), so labels and scores do not
    depend on the backend."""

    def __init__(self, cfg: ClsConfig, registry: ModelRegistry | None = None):
        self.cfg = cfg
        self.registry = registry or ModelRegistry()

    def __call__(
        self, img_list: list[np.ndarray], lang: str = "en"
    ) -> tuple[list[np.ndarray], list[tuple[str, float]]]:
        img_list = list(img_list)
        results = self.classify_only(img_list, lang)
        # M12 conditional rotate (text_cls.py:68-73)
        for i, (label, score) in enumerate(results):
            if "180" in label and score > self.cfg.cls_thresh:
                img_list[i] = rotate180(img_list[i])
        return img_list, results

    def classify_only(
        self, img_list: list[np.ndarray], lang: str = "en"
    ) -> list[tuple[str, float]]:
        """Labels/scores without rotating — the A4 most-angle path's
        first half."""
        c = self.cfg
        n = len(img_list)
        results: list[tuple[str, float]] = [("", 0.0)] * n
        # M16: width-ratio argsort (text_cls.py:43-50)
        ratios = [im.shape[1] / float(im.shape[0]) for im in img_list]
        indices = np.argsort(np.array(ratios))
        model = self.registry.for_lang("cls", lang)
        fast = getattr(model, "infer_crops", None) is not None
        for beg in range(0, n, c.cls_batch_num):
            batch_idx = indices[beg:beg + c.cls_batch_num]
            if fast:
                # fast entry: one batched M10 resize per micro-batch
                # (bit-identical — ClsModel.infer_crops docstring)
                probs = model.infer_crops([img_list[i] for i in batch_idx], c.cls_image_shape)
            else:  # contract path: M10 NCHW tensors
                tensors = np.stack([
                    cls_resize_norm(img_list[i], c.cls_image_shape) for i in batch_idx
                ])
                probs = model.infer(tensors)  # [B, 2]
            # M11 ClsPostProcess (ch_ppocr_v2_cls/utils.py:14-29)
            best = probs.argmax(axis=1)
            for rno, i in enumerate(batch_idx):
                results[i] = (c.label_list[best[rno]], float(probs[rno, best[rno]]))
        return results


def rec_resize_norm_ch0(img: np.ndarray, max_wh_ratio: float, shape: tuple = (3, 48, 320)) -> np.ndarray:
    """Single-channel plane of M13
    (ch_ppocr_v3_rec/text_recognize.py:79-101): per-micro-batch dynamic
    width int(imgH * max_wh_ratio); keep-aspect resize to h=imgH;
    normalize +/-0.5; zero-pad right.  All three channels of the M13
    tensor are identical, so the hot path materializes one plane and
    broadcasts the channel dim (rec_resize_norm gives the full tensor).

    Rectification pre-step (our stand-in for DBNet's shrink/unclip text
    core, SURVEY.md §7.0): tight-crop to the ink bounding box before
    resizing, so the glyph band upscales by an exact integer factor
    (bilinear, matching the reference's cv2 INTER_LINEAR)."""
    _imgC, imgH, tgt_base = shape
    band = deskew_band(tight_ink_crop(img))
    h, w = band.shape[:2]
    imgW = int(imgH * max_wh_ratio)
    ratio = w / float(h)
    resized_w = imgW if math.ceil(imgH * ratio) > imgW else int(math.ceil(imgH * ratio))
    resized = resize_bilinear(band, imgH, resized_w).astype(np.float32)
    resized = resized / 255.0
    resized = (resized - 0.5) / 0.5
    out = np.zeros((imgH, imgW), dtype=np.float32)  # zero pad, as text_recognize.py:98
    out[:, :resized_w] = resized
    return out


def rec_resize_norm(img: np.ndarray, max_wh_ratio: float, shape: tuple = (3, 48, 320)) -> np.ndarray:
    """M13 full-tensor form: (3, imgH, imgW) float32; channels equal."""
    plane = rec_resize_norm_ch0(img, max_wh_ratio, shape)
    return np.broadcast_to(plane[None], (3,) + plane.shape).copy()


def tight_ink_crop(img: np.ndarray) -> np.ndarray:
    """Crop to the bounding box of ink (>127) pixels; blank-safe."""
    ink = img > 127
    rows = np.flatnonzero(ink.any(axis=1))
    cols = np.flatnonzero(ink.any(axis=0))
    if rows.size == 0 or cols.size == 0:
        return np.zeros((1, 1), dtype=img.dtype)
    return img[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def deskew_band(band: np.ndarray) -> np.ndarray:
    """Residual-shear correction for rec input bands (the rectification
    role a real CRNN's feature extractor absorbs): when the tight band
    is taller than one glyph row — residual rotation survived the M9
    perspective rectification (e.g. the det smear produced an
    axis-aligned rect for a slightly rotated line) — fit the per-column
    ink-centroid slope and shift each column by the rounded linear
    trend, then re-tight-crop.  Bands already at glyph height return
    unchanged, so the clean axis-aligned path is bit-identical."""
    h, w = band.shape[:2]
    if h <= GLYPH_H or w < 2:
        return band
    ink = band > 127
    col_ink = ink.any(axis=0)
    xs = np.flatnonzero(col_ink)
    if xs.size < 2:
        return band
    ys = np.arange(h, dtype=np.float64)
    cent = (ink[:, xs] * ys[:, None]).sum(axis=0) / ink[:, xs].sum(axis=0)
    # least-squares slope of centroid vs column
    x = xs.astype(np.float64)
    xm, cm = x.mean(), cent.mean()
    denom = ((x - xm) ** 2).sum()
    if denom == 0:
        return band
    slope = float(((x - xm) * (cent - cm)).sum() / denom)
    shifts = np.round(slope * (np.arange(w, dtype=np.float64) - x[0])).astype(np.int64)
    pad = int(np.abs(shifts).max())
    if pad == 0:
        return band
    out = np.zeros((h + 2 * pad, w), dtype=band.dtype)
    for xcol in range(w):
        out[pad - shifts[xcol]:pad - shifts[xcol] + h, xcol] = band[:, xcol]
    return tight_ink_crop(out)


def most_angle(cls_res: list[tuple[str, float]]) -> str:
    """A4 majority vote (C++-only feature, AngleNet.cpp:113-130): mean
    of angle indices vs 0.5 decides ONE angle for all of a document's
    crops.  Exposed for per-document callers (the oracle / a
    groupby(url) Ray variant); the default distributed path classifies
    per crop like the reference's Python path."""
    if not cls_res:
        return "0"
    idx_sum = sum(1 for label, _ in cls_res if "180" in label)
    return "180" if idx_sum / len(cls_res) > 0.5 else "0"


def apply_most_angle(
    raw_crops: list[np.ndarray], cls_res: list[tuple[str, float]]
) -> list[np.ndarray]:
    """C++ flow (OcrLite.cpp:150-160): vote over the UNROTATED crops'
    labels, then rotate all crops or none.  Callers pass crops that
    have NOT been individually rotated (use classify_only)."""
    if most_angle(cls_res) == "180":
        return [rotate180(img) for img in raw_crops]
    return list(raw_crops)


class TextRecognizer:
    """M13-M14 + M16/A1: width-sort, micro-batch with per-batch dynamic
    width, rec kernel, CTC greedy decode, scatter-back."""

    def __init__(self, cfg: RecConfig, registry: ModelRegistry | None = None):
        self.cfg = cfg
        self.registry = registry or ModelRegistry()

    def __call__(
        self, img_list: list[np.ndarray], lang: str = "en"
    ) -> list[tuple[str, float]]:
        c = self.cfg
        n = len(img_list)
        results: list[tuple[str, float]] = [("", 0.0)] * n
        # rectify each crop once: the tight, DESKEWED band gives the M16
        # sort key (w/h) and is the fast path's rec input.  Deskew can
        # shrink the band height (raising its aspect); the contract path
        # resizes the same deskewed band inside rec_resize_norm_ch0, so
        # a ratio from the non-deskewed crop would cap imgW below the
        # band's true aspect and force a non-integer resize on rotated
        # crops.  Axis-aligned bands pass through deskew unchanged.
        bands = [deskew_band(tight_ink_crop(im)) for im in img_list]
        ratios = [b.shape[1] / float(b.shape[0]) for b in bands]
        indices = np.argsort(np.array(ratios))  # M16 (text_recognize.py:44-51)
        model = self.registry.for_lang("rec", lang)
        _imgC, imgH, imgW = c.rec_img_shape
        for beg in range(0, n, c.rec_batch_num):
            batch_idx = indices[beg:beg + c.rec_batch_num]
            # A1: grouped max over the micro-batch picks the pad width
            # (text_recognize.py:57-61), seeded with the config aspect;
            # observable only through blank timesteps, which the fast
            # band path reproduces (RecModel.infer_bands docstring)
            max_wh_ratio = imgW / float(imgH)
            for i in batch_idx:
                max_wh_ratio = max(max_wh_ratio, ratios[i])
            if getattr(model, "infer_bands", None) is not None:
                preds = model.infer_bands([bands[i] > 127 for i in batch_idx])
            else:  # contract path: full M13 tensors
                planes = np.stack([
                    rec_resize_norm_ch0(img_list[i], max_wh_ratio, c.rec_img_shape)
                    for i in batch_idx
                ])
                tensors = np.broadcast_to(
                    planes[:, None], (planes.shape[0], 3) + planes.shape[1:]
                )
                preds = model.infer(tensors)
            decoded = ctc_greedy_decode(preds)  # M14
            for rno, i in enumerate(batch_idx):
                results[i] = decoded[rno]       # scatter-back (text_recognize.py:74-75)
        return results
