"""Seeded deterministic "model" kernels + the per-worker model registry.

The reference holds an ONNXRuntime ``InferenceSession`` per stage,
built once per process (T1, python/rapidocr_onnxruntime/utils.py:21-87)
and cached across languages through two ``lru_cache`` levels (T3,
ocrweb_multi/rapidocr/rapid_ocr_api.py:53-61, main.py:15-19).  No model
files ship in the reference and this sandbox has no network, so — per
SURVEY.md §7.0 — each session is a deterministic numpy kernel behind
the same ``infer(tensor) -> ndarray`` interface.  Everything
*observable* (tensor contracts NCHW float32, prob-map post-processing,
argmax semantics, CTC logit layout) matches the reference's shapes.

``ModelRegistry`` is the T3 analog: a per-process dict cache keyed by
``(stage, model_name)`` plus a language -> (det, cls, rec) routing
table (J3, ocrweb_multi/config.yaml:72-104), so one worker serves many
languages with shared sub-models.
"""

from __future__ import annotations

import math

import numpy as np

from rapidocr_ray.glyphs import (
    CHARSET,
    GLYPH_ADVANCE,
    GLYPH_GAP,
    GLYPH_H,
    GLYPH_W,
    TEMPLATE_INK,
    TEMPLATES,
)
from rapidocr_ray.functions.imgproc import IMAGENET_MEAN, IMAGENET_STD, bilinear_taps

N_CLASSES = 1 + len(CHARSET)  # blank + keys + space, CTC layout (M14)

# det kernel receptive field: text pixels are smeared horizontally so
# word gaps fuse into line-level regions — the behavior DBNet learns;
# here it is an explicit max-filter (SURVEY.md §7.0 stand-in).
DET_H_REACH = 5   # +/- columns: bridges inter-word gaps -> line-level regions
DET_V_REACH = 3   # +/- rows: bridges the glyph's blank rows 6..10 so the
                  # row-11 anchors fuse with the dense top band; line gaps
                  # (>= 32 px in the synthetic corpus) stay separate
DET_PEAK = 0.9    # prob value inside text regions


def _max_filter_1d(x: np.ndarray, reach: int, axis: int) -> np.ndarray:
    """Centered 1-D max filter (window 2*reach+1), zero-padded edges.
    Successive-doubling dilation: a dilation by s applied to a map
    already dilated by c yields dilation by c+s, so reach r needs
    O(log r) full-array max passes instead of 2r shifted copies."""
    out = x.copy()
    covered = 0
    step = 1
    while covered < reach:
        s = min(step, reach - covered)
        prev = out.copy()
        if axis == 1:
            np.maximum(out[:, :-s], prev[:, s:], out=out[:, :-s])
            np.maximum(out[:, s:], prev[:, :-s], out=out[:, s:])
        else:
            np.maximum(out[:-s, :], prev[s:, :], out=out[:-s, :])
            np.maximum(out[s:, :], prev[:-s, :], out=out[s:, :])
        covered += s
        step = covered  # doubling: next dilation can be as large as covered
    return out


def _ink_from_normalized(chan0: np.ndarray) -> np.ndarray:
    """Invert M2 normalization on channel 0 -> boolean ink map."""
    return (chan0 * IMAGENET_STD[0] + IMAGENET_MEAN[0]) > 0.5


DET_SKEW_MAX_DEG = 20       # shear-estimate search range (+/- degrees)
DET_SKEW_MARGIN = 1.15      # profile-sharpness hysteresis: a non-zero
                            # shear must beat the 0-degree profile by
                            # 15% or the bit-identical axis-aligned
                            # path is kept (stability on clean pages)
DET_SKEW_SAMPLE = 20_000    # deterministic ink-pixel stride cap for
                            # the estimate (big pages stay O(sample))


# tan of every candidate shear angle, -DET_SKEW_MAX_DEG..+DET_SKEW_MAX_DEG
_SHEAR_TANS = np.array(
    [math.tan(math.radians(d)) for d in range(-DET_SKEW_MAX_DEG, DET_SKEW_MAX_DEG + 1)]
)


def _ink_pixels(ink: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ys, xs) of the ink pixels in row-major order — ``np.nonzero``'s
    output via ``flatnonzero`` + ``divmod`` (~8x cheaper on a page)."""
    return np.divmod(np.flatnonzero(ink), ink.shape[1])


def _estimate_shear(ink: np.ndarray) -> float:
    """Dominant text-line shear (tan theta) by projection-profile
    maximization: for each candidate angle, flatten lines with a
    per-column integer y-shift and score the row-profile sharpness
    (sum of squared bin counts — maximal when ink concentrates into
    few rows, i.e. when lines are horizontal after the shear).
    Deterministic; returns 0.0 unless a non-zero angle clearly wins.

    Every angle is scored by one 2-D (angle x shifted row) ``bincount``.
    A [angles, W] table holds each column's bin offset per angle: the
    angle's bin block, minus the column's rounded shift, plus the
    angle's largest shift so bins stay non-negative.  With the sampled
    pixels taken column by column, the table columns repeated by the
    per-column pixel counts plus the pixels' rows index every pixel
    under every angle.  A profile moved by a constant keeps its sum of
    squares, so the scores equal the per-angle profiles of
    y - round(x tan) - min."""
    h, w = ink.shape
    n = int(np.count_nonzero(ink))
    if n < 2:
        return 0.0
    if n > DET_SKEW_SAMPLE:
        # deterministic stride over the row-major pixel order
        ys, xs = _ink_pixels(ink)
        step = n // DET_SKEW_SAMPLE + 1
        ys, xs = ys[::step], xs[::step]
        by_col = np.argsort(xs, kind="stable")
        ys, xs = ys[by_col], xs[by_col]
    else:
        xs, ys = np.divmod(np.flatnonzero(ink.T), h)  # the same pixels, column by column
    shifts = np.round(np.arange(w, dtype=np.float64) * _SHEAR_TANS[:, None]).astype(np.int64)
    top = shifts.max(axis=1, keepdims=True)
    span = h + int((top[:, 0] - shifts.min(axis=1)).max())
    table = np.arange(_SHEAR_TANS.size)[:, None] * span + top - shifts
    idx = np.repeat(table, np.bincount(xs, minlength=w), axis=1)  # [angles, pixels]
    idx += ys
    prof = np.bincount(idx.reshape(-1), minlength=_SHEAR_TANS.size * span)
    prof = prof.reshape(_SHEAR_TANS.size, span).astype(np.float64)
    v = (prof * prof).sum(axis=1)
    # the first maximum in ascending angle order wins, as a strict >
    # scan from -DET_SKEW_MAX_DEG keeps it
    k = int(v.argmax())
    if k != DET_SKEW_MAX_DEG and v[k] < v[DET_SKEW_MAX_DEG] * DET_SKEW_MARGIN:
        return 0.0
    return float(_SHEAR_TANS[k])


def _deskewed_line_bands(ink_u8: np.ndarray, t: float) -> int:
    """Number of distinct text bands in deskewed space: runs of inky
    rows (after the per-column y-shift that _ink_to_pred would apply)
    separated by more than the V-smear reach.  One band means the
    shear-space smear cannot improve line separation."""
    ys, xs = np.nonzero(ink_u8)
    if ys.size == 0:
        return 0
    yp = ys - np.round(xs * t).astype(np.int64)
    yp -= yp.min()
    has_ink = np.bincount(yp) > 0
    rows = np.flatnonzero(has_ink)
    # count gaps the V-smear would NOT bridge (> 2 * reach)
    return 1 + int((np.diff(rows) > 2 * DET_V_REACH).sum())


def _axis_smear(
    ink_u8: np.ndarray,
    h_reach: int = DET_H_REACH,
    v_reach: int = DET_V_REACH,
) -> np.ndarray:
    smear = _max_filter_1d(ink_u8, h_reach, axis=1)
    return _max_filter_1d(smear, v_reach, axis=0)


def _ink_to_pred(ink: np.ndarray) -> np.ndarray:
    """Shared det smear: boolean ink map -> prob map (uint8 passes, one
    float32 write).

    Direction-aware: the axis-aligned H-smear on a sloped page turns
    horizontal reach into vertical proximity (+/-reach * tan theta from
    each side), merging neighbouring rotated lines.  When the shear
    estimate finds a dominant non-zero angle, the smear runs in
    deskewed space — per-column integer y-shift, axis-aligned smear,
    inverse shift — so line separation is judged perpendicular to the
    text direction.  Axis-aligned pages (estimate 0 under the
    hysteresis margin) take the identical legacy path bit-for-bit."""
    ink_u8 = ink.astype(np.uint8)
    t = _estimate_shear(ink)
    if t != 0.0 and _deskewed_line_bands(ink_u8, t) <= 1:
        # single text band: the axis smear cannot merge anything, and
        # its (proven) geometry feeds the rec warp unchanged — the
        # shear path's integer-shift staircase would only perturb the
        # box by a pixel or two for no separation benefit
        t = 0.0
    if t == 0.0:
        smear = _axis_smear(ink_u8)
        return smear.astype(np.float32) * np.float32(DET_PEAK)
    h, w = ink_u8.shape
    shifts = np.round(np.arange(w, dtype=np.float64) * t).astype(np.int64)
    pad_top = int(max(0, shifts.max()))
    pad_bot = int(max(0, -shifts.min()))
    # flat index of page pixel (y, x) in the deskewed tall map: row
    # y + pad_top - shift[x] of column x.  One scatter in, one gather
    # out — no per-shift loop, so the cost does not grow with tan theta
    idx = ((pad_top - shifts)[None, :] + np.arange(h)[:, None]) * w + np.arange(w)
    tall = np.zeros((h + pad_top + pad_bot, w), dtype=np.uint8)
    tall.ravel()[idx] = ink_u8
    # +1 horizontal reach: the integer shift staircase costs up to one
    # column of effective H continuity at each step boundary
    tall = _axis_smear(tall, h_reach=DET_H_REACH + 1)
    return tall.ravel()[idx].astype(np.float32) * np.float32(DET_PEAK)


class DetModel:
    """DBNet stand-in: NCHW float32 -> prob maps [N, 1, H, W].

    ``infer(normalize(resized))`` is the tensor contract; ``infer_ink``
    is the fast entry on the boolean ink map that
    ``imgproc.det_resize_ink`` takes straight from the resize, and the
    two give bit-identical maps (see ``infer_ink``)."""

    def infer(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        out = np.zeros((n, 1, h, w), dtype=np.float32)
        for i in range(n):
            out[i, 0] = _ink_to_pred(_ink_from_normalized(x[i, 0]))
        return out

    def infer_ink(self, ink: np.ndarray) -> np.ndarray:
        """Fast entry: boolean ink map -> prob map [H, W].

        ``infer(normalize(img))`` and ``infer_ink(img >= 128)`` are
        bit-identical by construction: M2 normalization is affine, so
        inverting it (``_ink_from_normalized``) recovers exactly the
        128-gray threshold — the hot path skips the two full-page
        float32 normalize/invert passes, and the smear runs on uint8
        (1/4 the memory traffic of float32)."""
        return _ink_to_pred(ink)


class ClsModel:
    """AngleNet stand-in: NCHW float32 (M10-normalized, +/-0.5) ->
    softmax probs [N, 2] over ('0', '180').

    The learned 0/180 feature is replaced by the glyph alphabet's
    enforced top-heaviness (glyphs.py): upright text has more ink in
    the top half of its tight row band.  k is sized so the enforced
    margin clears the reference's 0.9 rotate threshold (M12).

    ``infer(cls_resize_norm(crop))`` is the tensor contract;
    ``infer_crops(crops)`` is the fast entry on the uint8 crops of a
    micro-batch, bit-identical to it (see its docstring)."""

    K = 20.0

    def infer(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        out = np.zeros((n, 2), dtype=np.float32)
        for i in range(n):
            chan = x[i, 0]
            # M10 zero-pads the right with 0.0, a value no resized pixel
            # takes (k/255 never normalizes to exactly 0): drop pad columns
            chan = chan[:, ~(chan == 0.0).all(axis=0)]
            ink = chan > 0.0  # M10 normalization maps ink->+1, bg->-1
            # the band spans every row with any ink, faint included: when
            # M10 squeezes a long line the glyphs' one-pixel bottom anchor
            # can fade below the 0.5 threshold, and a band of the dense
            # top rows alone carries no orientation signal
            rows = np.flatnonzero((chan > -1.0).any(axis=1))
            if rows.size == 0:
                out[i] = [0.5, 0.5]
                continue
            band = ink[rows[0]:rows[-1] + 1]
            hh = band.shape[0] // 2
            top = int(band[:hh].sum())
            bot = int(band[band.shape[0] - hh:].sum())
            total = max(1, int(band.sum()))
            ratio = (top - bot) / total
            p0 = 1.0 / (1.0 + np.exp(-self.K * ratio))
            out[i] = [p0, 1.0 - p0]
        return out

    def infer_crops(self, crops: list[np.ndarray], shape: tuple = (3, 48, 192)) -> np.ndarray:
        """Fast entry: gray uint8 crops of one micro-batch -> probs [N, 2],
        bit-identical to ``infer`` on their ``cls_resize_norm`` tensors.

        The M10 resize of the whole micro-batch is one row gather per
        crop height (crops of one height side by side on one canvas)
        and one column gather with per-crop column taps and weights, in
        the float32 arithmetic of ``resize_bilinear``.  ``infer`` only
        tests the normalized value against 0 (ink) and -1 (any ink) and
        drops the pad columns; for a resized value v those tests are
        floor(v + 0.5) >= 128 and >= 1, i.e. v + 0.5 >= 128 and >= 1 in
        float32.  The band sums are per-row segment sums per crop."""
        n = len(crops)
        out = np.zeros((n, 2), dtype=np.float32)
        if n == 0:
            return out
        _c, img_h, img_w = shape
        hs = np.array([c.shape[0] for c in crops])
        ws = np.array([c.shape[1] for c in crops])
        rw = np.ceil(img_h * (ws / hs.astype(np.float64)))
        rw = np.where(rw > img_w, img_w, rw).astype(np.int64)   # M10 width rule
        # row pass: every crop resized to img_h rows, side by side,
        # grouped by height (one row gather per height)
        order = np.argsort(hs, kind="stable")
        col0 = np.empty(n, dtype=np.int64)
        col0[order] = np.cumsum(ws[order]) - ws[order]
        rows = np.empty((img_h, int(ws.sum())), dtype=np.float32)
        for h in np.unique(hs):
            group = order[hs[order] == h]
            block = rows[:, col0[group[0]]:col0[group[-1]] + ws[group[-1]]]
            canvas = np.concatenate([crops[i] for i in group], axis=1)
            y0, y1, wy = bilinear_taps(int(h), img_h)
            wy = wy[:, None]
            np.multiply(canvas[y0], 1 - wy, out=block, dtype=np.float32)
            block += np.multiply(canvas[y1], wy, dtype=np.float32)
        # column pass: per-crop taps over the shared canvas
        start = np.cumsum(rw) - rw
        x0, x1, wx = bilinear_taps(ws, rw)
        off = np.repeat(col0, rw)
        v = rows[:, off + x0]
        v *= 1 - wx
        right = rows[:, off + x1]
        right *= wx
        v += right
        v += np.float32(0.5)
        ink_rows = np.add.reduceat(v >= 128, start, axis=1, dtype=np.int64)  # [img_h, n]
        any_rows = np.logical_or.reduceat(v >= 1, start, axis=1)
        # band = first..last row with any ink; top/bottom halves by prefix sums
        has = any_rows.any(axis=0)
        r0 = any_rows.argmax(axis=0)
        r1 = img_h - 1 - any_rows[::-1].argmax(axis=0)
        hh = (r1 - r0 + 1) // 2
        cum = np.zeros((img_h + 1, n), dtype=np.int64)
        np.cumsum(ink_rows, axis=0, out=cum[1:])
        at = np.arange(n)
        top = cum[r0 + hh, at] - cum[r0, at]
        bot = cum[r1 + 1, at] - cum[r1 + 1 - hh, at]
        total = np.maximum(1, cum[r1 + 1, at] - cum[r0, at])
        p0 = 1.0 / (1.0 + np.exp(-self.K * ((top - bot) / total)))
        out[:, 0] = np.where(has, p0, 0.5)
        out[:, 1] = np.where(has, 1.0 - p0, 0.5)
        return out


# rec GEMM operand: 1 - 2t per template pixel, flattened [GLYPH_H*GLYPH_W, C-1]
_WIN_PX = GLYPH_H * GLYPH_W
_TEMPLATE_SIGNS = np.ascontiguousarray((1.0 - 2.0 * TEMPLATES).reshape(len(TEMPLATES), _WIN_PX).T)
# the 8 +/-1 px retry offsets as (1+dy, 1+dx) indices into the 3x3
# offset axes of RecModel's shifted-window view, in (dy, dx) loop order
_RETRY_DY, _RETRY_DX = np.array(
    [(1 + dy, 1 + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
).T


def _template_match(windows: np.ndarray) -> np.ndarray:
    """binary float32 windows [n, GLYPH_H*GLYPH_W] -> match [n, C-1],
    1 - L1(w, t) / (GLYPH_H*GLYPH_W) against every template t.

    For binary vectors L1(w, t) = |w| + |t| - 2 w.t = w.(1 - 2t) + |t|,
    so the whole matched filter is one GEMM plus the template ink
    counts.  Every partial sum is an integer of magnitude <= 192, exact
    in float32 under any summation order, so the result is bit-identical
    to the broadcast sum of |w - t|."""
    dist = windows @ _TEMPLATE_SIGNS
    dist += TEMPLATE_INK
    dist /= np.float32(_WIN_PX)
    return np.subtract(np.float32(1.0), dist, out=dist)


class RecModel:
    """CRNN-CTC stand-in: NCHW float32 (M13-normalized, h=48=4x glyph
    height) -> CTC logits [N, T, C].

    Matched filter over the shared glyph templates at the glyph stride,
    emitting interleaved blank timesteps (T = 2*nmax+1) so the faithful
    CTC greedy decode (M14) — blank drop + repeat collapse — recovers
    doubled letters exactly as a real CRNN's blank-separated emissions
    would.

    The filter scores a binary window w against a binary template t as
    1 - L1(w, t) / (GLYPH_H*GLYPH_W) with L1(w, t) = |w| + |t| - 2 w.t,
    so the windows of every band in one call are scored by a single
    ``[n_windows, 96] @ [96, C-1]`` GEMM (``_template_match``); every
    term is a small integer, exact in float32, so the scores are
    bit-identical to a broadcast sum of |w - t|.  The +/-1 px retry and
    its tie rule are in ``_stacked_line_logits``."""

    def infer(self, x: np.ndarray) -> np.ndarray:
        inks = []
        for i in range(x.shape[0]):
            ink4 = x[i, 0] > 0.0          # M13 maps ink->+1, bg/pad->-1
            # exact inverse of the 4x BILINEAR upscale: at offsets
            # (1+4k), the target pixel's weight is 0.875^2 = 0.77 > 0.5,
            # so thresholding at gray 127.5 recovers the source bit
            inks.append(ink4[1::4, 1::4])
        return RecModel._bands_to_logits(self, inks)

    def infer_bands(self, inks: list[np.ndarray]) -> np.ndarray:
        return RecModel._bands_to_logits(self, inks)

    def _bands_to_logits(self, inks: list[np.ndarray]) -> np.ndarray:
        """Shared impl of the band path: boolean glyph-resolution ink
        maps -> CTC logits.

        ``infer(rec_resize_norm(crop))`` and ``infer_bands([band])``
        are bit-identical by construction: the M13 4x bilinear upscale
        of a binary band is exactly inverted by thresholded sampling at
        [1::4, 1::4] (the target pixel's bilinear weight there is
        0.875^2, which dominates the 127.5 gray threshold —
        tests/test_imgproc.py::test_resize_bilinear_4x_inversion and
        tests/test_cascade.py fast-vs-contract equality), so the hot
        path skips the float32 48-high tensor round trip entirely."""
        logits, counts = RecModel._stacked_line_logits(inks)
        t_total = 2 * int(counts.max(initial=0)) + 1
        out = np.zeros((len(inks), t_total, N_CLASSES), dtype=np.float32)
        out[:, :, 0] = 1.0                 # blank-certain everywhere by default
        ends = np.cumsum(counts)
        for i, n in enumerate(counts):
            out[i, 1:2 * n + 1:2] = logits[ends[i] - n:ends[i]]
        return out

    # windows whose best direct match falls below this retry at +/-1 px
    # offsets — clean (unwarped) glyphs match exactly at 1.0, so the
    # fallback never fires on the axis-aligned path and its output is
    # bit-identical to the direct strided match
    OFFSET_SEARCH_THRESH = 0.9

    @staticmethod
    def _line_logits(ink: np.ndarray) -> np.ndarray:
        """boolean [H, W] -> per-char class scores [n_chars, C]: one
        band through ``_stacked_line_logits``."""
        return RecModel._stacked_line_logits([ink])[0]

    @staticmethod
    def _stacked_line_logits(inks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """boolean bands -> (per-char class scores of all bands stacked
        in order [sum(counts), C], chars per band [len(inks)]).

        Direct strided matched filter at the glyph advance, one GEMM over
        the windows of every band; windows that score poorly
        (rotated/warped crops re-rasterized by the M9 perspective
        rectification introduce +/-1 px jitter) are re-tried at the 8
        neighbouring 1-px offsets in one more GEMM over those windows
        only — the stand-in for a real CRNN's translation tolerance.  A
        weak window keeps the first candidate, in the order [direct,
        (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)], whose best
        score is the highest: the direct match wins ties, and among
        offsets the earlier one does."""
        counts = np.zeros(len(inks), dtype=np.intp)
        placed: list[tuple[np.ndarray, int]] = []  # (tight band, first slot)
        n_slots = 0
        for i, ink in enumerate(inks):
            rows = np.flatnonzero(ink.any(axis=1))
            cols = np.flatnonzero(ink.any(axis=0))
            if rows.size == 0 or cols.size == 0:
                continue
            band = ink[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
            # glyph alphabet guarantees ink in first/last row+col of
            # every non-space glyph, so the tight band is exactly GLYPH_H
            # tall and starts/ends on glyph boundaries; degenerate crops
            # fall back to a padded/cropped canvas (deterministic either
            # way).
            counts[i] = (band.shape[1] - 1) // GLYPH_ADVANCE + 1
            placed.append((band[:GLYPH_H + 1], n_slots))
            # one blank spacer slot after each band keeps the 1-px halo
            # around it blank, as on a canvas of its own
            n_slots += counts[i] + 1
        logits = np.zeros((int(counts.sum()), N_CLASSES), dtype=np.float32)
        logits[:, 0] = 0.3                 # blank baseline at char timesteps
        if not placed:
            return logits, counts
        # all bands side by side on one canvas, slot s at columns
        # 1 + s*GLYPH_ADVANCE, with a 1-px halo row above and below
        canvas = np.zeros((GLYPH_H + 2, n_slots * GLYPH_ADVANCE + 1), dtype=np.float32)
        for band, slot in placed:
            x0 = 1 + slot * GLYPH_ADVANCE
            canvas[1:1 + band.shape[0], x0:x0 + band.shape[1]] = band
        # shifted[1 + dy, 1 + dx, s] is slot s's window moved by (dy, dx)
        row, isz = canvas.strides
        shifted = np.lib.stride_tricks.as_strided(
            canvas,
            shape=(3, 3, n_slots, GLYPH_H, GLYPH_W),
            strides=(row, isz, GLYPH_ADVANCE * isz, row, isz),
            writeable=False,
        )
        spacers = np.cumsum(counts[counts > 0] + 1) - 1
        slots = np.delete(np.arange(n_slots), spacers)
        match = _template_match(shifted[1, 1, slots].reshape(-1, _WIN_PX))  # [n, C-1]
        weak = np.flatnonzero(match.max(axis=1) < RecModel.OFFSET_SEARCH_THRESH)
        if weak.size:
            moved = shifted[_RETRY_DY[:, None], _RETRY_DX[:, None], slots[weak]]
            cands = np.concatenate([
                match[weak][None],
                _template_match(moved.reshape(-1, _WIN_PX)).reshape(8, weak.size, -1),
            ])                             # [9, n_weak, C-1]
            pick = cands.max(axis=2).argmax(axis=0)  # first maximum wins
            match[weak] = cands[pick, np.arange(weak.size)]
        logits[:, 1:] = match              # template j -> dict index j+1
        return logits, counts


class DetModelContract(DetModel):
    """'contract' backend det session: exposes ONLY the NCHW float32
    tensor interface — no ``infer_ink`` fast entry.  The T2 backend
    swap analog of the reference's API-duplicate runtime tree
    (python/rapidocr_openvino/* re-implements the onnxruntime surface
    over a second runtime): same math, different session API shape.
    Outputs are bit-identical to the kernel backend by construction."""

    infer_ink = None


class ClsModelContract(ClsModel):
    """'contract' backend cls session: M10 tensor path only (no
    ``infer_crops`` fast entry)."""

    infer_crops = None


class RecModelContract(RecModel):
    """'contract' backend rec session: full M13 tensor path only (no
    ``infer_bands`` fast entry)."""

    infer_bands = None


# ---------------------------------------------------------------------------
# Registry (T3/J3 analog) + backend strategy (T2)
# ---------------------------------------------------------------------------

BACKENDS: dict[str, dict[tuple[str, str], type]] = {
    # numpy kernels with fast entries (the default 'runtime')
    "kernel": {
        ("det", "det_ch"): DetModel,
        ("cls", "cls_ch"): ClsModel,
        ("rec", "rec_ch"): RecModel,
    },
    # tensor-contract-only sessions (the second 'runtime'): identical
    # outputs through the full NCHW/M13 path — tests/test_cascade.py
    # asserts cross-backend equality
    "contract": {
        ("det", "det_ch"): DetModelContract,
        ("cls", "cls_ch"): ClsModelContract,
        ("rec", "rec_ch"): RecModelContract,
    },
}

_FACTORIES = BACKENDS["kernel"]

# language -> model-name triple; distinct languages share sub-models,
# exactly the sharing ocrweb_multi/config.yaml:43-47,72-104 exercises.
LANG_ROUTES: dict[str, dict[str, str]] = {
    lang: {"det": "det_ch", "cls": "cls_ch", "rec": "rec_ch"}
    for lang in ("ch", "en", "cht", "ja", "zh", "es", "de", "fr")
}
DEFAULT_LANG = "en"


class ModelRegistry:
    """Per-process model cache keyed (stage, name) — the lru_cache analog.

    One per backend in each worker process (``CascadeStage`` takes it
    from the process cache, so every task reuses it); ``for_lang`` resolves
    the routing table and returns shared session objects.  ``backend``
    picks the session implementation family (T2 strategy; the config
    surface is ``Global.backend``)."""

    def __init__(self, backend: str = "kernel"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; have {sorted(BACKENDS)}")
        self.backend = backend
        self._cache: dict[tuple[str, str], object] = {}

    def get(self, stage: str, name: str):
        key = (stage, name)
        if key not in self._cache:
            self._cache[key] = BACKENDS[self.backend][key]()
        return self._cache[key]

    def for_lang(self, stage: str, lang: str):
        route = LANG_ROUTES.get(lang, LANG_ROUTES[DEFAULT_LANG])
        return self.get(stage, route[stage])
