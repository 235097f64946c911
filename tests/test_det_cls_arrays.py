"""Det post-processing and cls as page-level array programs must
reproduce the per-component and per-crop code they replaced, exactly.

The ``_ref_*`` functions below are verbatim copies of that code: the
row-run union-find labelling, Andrew's hull, the per-edge rotating
calipers, the per-component ``db_postprocess`` loop, the per-box
``filter_det_boxes``, the 41-pass shear scan, the per-shift loops of
the deskewed smear and the per-crop
``cls_resize_norm`` + ``ClsModel.infer``.  Every test compares the
array programs against them with exact equality (det scores, which are
float64 means instead of float32 ones, to 1e-6)."""

import math
import time

import numpy as np
import pytest

import rapidocr_ray.state.models as models
from rapidocr_ray.config import PipelineConfig
from rapidocr_ray.functions import imgproc as ip
from rapidocr_ray.functions.imgproc import crop_box, dilate2x2, perspective_matrix, warp_perspective
from rapidocr_ray.glyphs import render_line, render_page
from rapidocr_ray.state.models import (
    DET_SKEW_MARGIN,
    DET_SKEW_MAX_DEG,
    DET_SKEW_SAMPLE,
    ClsModel,
    DetModel,
)
from rapidocr_ray.stages.cascade import TextDetector

# ---------------------------------------------------------------------------
# verbatim reference copies
# ---------------------------------------------------------------------------


def _ref_connected_component_points(bitmap: np.ndarray) -> list[np.ndarray]:
    """8-connected components -> list of per-component point arrays
    [(x, y), ...] (the run ENDPOINTS of every row-run — sufficient for
    the convex hull, hence for minAreaRect), in discovery order
    (top-to-bottom, left-to-right — the same 'first max_candidates
    discovered' meaning cv2.findContours RETR_LIST gives the O3 cap).

    Same two-pass row-run union-find as ``connected_components``; kept
    separate because the bbox-only variant is cheaper and still serves
    callers that need no rotated geometry."""
    h, w = bitmap.shape
    parent: list[int] = []

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = bitmap
    d = np.diff(padded, axis=1)
    sy, sx = np.nonzero(d == 1)
    ey, ex = np.nonzero(d == -1)
    all_runs = list(zip(sy.tolist(), sx.tolist(), (ex - 1).tolist()))

    runs_with_labels: list[tuple[int, int, int, int]] = []
    prev_runs: list[tuple[int, int, int]] = []
    prev_y = -2
    i = 0
    n_runs = len(all_runs)
    while i < n_runs:
        y = all_runs[i][0]
        row_runs: list[tuple[int, int, int]] = []
        if y != prev_y + 1:
            prev_runs = []
        while i < n_runs and all_runs[i][0] == y:
            _, x0, x1 = all_runs[i]
            label = len(parent)
            parent.append(label)
            for px0, px1, plab in prev_runs:
                if px0 <= x1 + 1 and px1 >= x0 - 1:
                    union(label, plab)
            row_runs.append((x0, x1, label))
            runs_with_labels.append((y, x0, x1, label))
            i += 1
        prev_runs = row_runs
        prev_y = y

    # the hull only needs each row's horizontal extremes per component:
    # collapse multiple runs per (component, row) to (min x0, max x1)
    rows: dict[int, dict[int, list[int]]] = {}
    order: list[int] = []
    for y, x0, x1, label in runs_with_labels:
        root = find(label)
        comp = rows.get(root)
        if comp is None:
            rows[root] = comp = {}
            order.append(root)
        ext = comp.get(y)
        if ext is None:
            comp[y] = [x0, x1]
        else:
            if x0 < ext[0]:
                ext[0] = x0
            if x1 > ext[1]:
                ext[1] = x1
    out: list[np.ndarray] = []
    for r in order:
        comp = rows[r]
        pts = []
        for y, (lo, hi) in comp.items():
            pts.append((lo, y))
            if hi != lo:
                pts.append((hi, y))
        out.append(np.array(pts, dtype=np.float64))
    return out


def _ref_convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain -> CCW hull vertices (y axis pointing
    down makes it visually clockwise; orientation is consistent, which
    is all the calipers need).  Scalar cross products — np.cross on
    2-vectors costs ~30x in Python dispatch (profiled at 85% of det
    wall before this)."""
    pts = np.unique(points, axis=0)  # sorts lexicographically (x, then y)
    if len(pts) <= 2:
        return pts
    seq = [(float(x), float(y)) for x, y in pts]

    def half(s):
        out: list[tuple[float, float]] = []
        for px, py in s:
            while len(out) >= 2:
                ox, oy = out[-1]
                qx, qy = out[-2]
                if (ox - qx) * (py - qy) - (oy - qy) * (px - qx) <= 0:
                    out.pop()
                else:
                    break
            out.append((px, py))
        return out

    lower = half(seq)
    upper = half(seq[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.float64)


def _ref_min_area_rect(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-area enclosing rectangle (rotating calipers over the
    convex hull) -> (4 corner points ordered by the reference's
    get_mini_boxes rule [tl, tr, br, bl], sside = min(w, h)).

    Functional replacement for cv2.minAreaRect + cv2.boxPoints +
    get_mini_boxes (utils.py:326-345); deterministic ties (first
    minimal hull edge wins)."""
    hull = _ref_convex_hull(np.asarray(points, dtype=np.float64))
    if len(hull) == 1:
        p = hull[0]
        box = np.array([p, p, p, p])
        return _ref_order_mini_box(box), 0.0
    if len(hull) == 2:
        p, q = hull
        box = np.array([p, q, q, p])
        return _ref_order_mini_box(box), 0.0
    best = None
    n = len(hull)
    for i in range(n):
        e = hull[(i + 1) % n] - hull[i]
        norm = np.hypot(e[0], e[1])
        if norm == 0:
            continue
        u = e / norm
        v = np.array([-u[1], u[0]])
        pu = hull @ u
        pv = hull @ v
        w = pu.max() - pu.min()
        h = pv.max() - pv.min()
        area = w * h
        if best is None or area < best[0] - 1e-12:
            best = (area, u, v, pu.min(), pv.min(), w, h)
    _, u, v, u0, v0, w, h = best
    c00 = u * u0 + v * v0
    box = np.array([c00, c00 + u * w, c00 + u * w + v * h, c00 + v * h])
    return _ref_order_mini_box(box), float(min(w, h))


def _ref_order_mini_box(box: np.ndarray) -> np.ndarray:
    """get_mini_boxes point ordering (utils.py:329-344): sort the 4
    corners by x, then resolve each x-pair by y -> [tl, tr, br, bl]."""
    pts = sorted(box.tolist(), key=lambda p: p[0])
    if pts[1][1] > pts[0][1]:
        i1, i4 = 0, 1
    else:
        i1, i4 = 1, 0
    if pts[3][1] > pts[2][1]:
        i2, i3 = 2, 3
    else:
        i2, i3 = 3, 2
    return np.array([pts[i1], pts[i2], pts[i3], pts[i4]], dtype=np.float64)


def _ref_fill_poly_mask(shape: tuple[int, int], quad: np.ndarray) -> np.ndarray:
    """Boolean mask of pixels inside or on the polygon — the
    cv2.fillPoly analog used by _ref_box_score_fast (utils.py:354-360).
    Vectorized even-odd ray cast over the window (4 edge passes) plus
    explicit boundary inclusion, so an axis-aligned int rect fills
    exactly [x0..x1] x [y0..y1] as cv2 does."""
    h, w = shape
    q = np.asarray(quad, dtype=np.float64)
    n = len(q)
    ys, xs = np.mgrid[0:h, 0:w]
    inside = np.zeros((h, w), dtype=bool)
    on_edge = np.zeros((h, w), dtype=bool)
    for i in range(n):
        x1, y1 = q[i]
        x2, y2 = q[(i + 1) % n]
        if y1 != y2:
            crosses = ((y1 <= ys) & (ys < y2)) | ((y2 <= ys) & (ys < y1))
            xi = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (xs < xi)
        cross = (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1)
        on_edge |= (
            (cross == 0)
            & (xs >= min(x1, x2)) & (xs <= max(x1, x2))
            & (ys >= min(y1, y2)) & (ys <= max(y1, y2))
        )
    return inside | on_edge


def _ref_axis_aligned(b: np.ndarray) -> bool:
    return (
        b[0][1] == b[1][1]
        and b[2][1] == b[3][1]
        and b[0][0] == b[3][0]
        and b[1][0] == b[2][0]
    )


def _ref_box_score_fast(pred: np.ndarray, box: np.ndarray) -> float:
    """A3 'fast' score (utils.py:347-361): mean prob inside the filled
    quad, evaluated on the quad's clipped AABB window."""
    h, w = pred.shape[:2]
    b = np.asarray(box, dtype=np.float64).copy()
    xmin = int(np.clip(np.floor(b[:, 0].min()), 0, w - 1))
    xmax = int(np.clip(np.ceil(b[:, 0].max()), 0, w - 1))
    ymin = int(np.clip(np.floor(b[:, 1].min()), 0, h - 1))
    ymax = int(np.clip(np.ceil(b[:, 1].max()), 0, h - 1))
    b[:, 0] -= xmin
    b[:, 1] -= ymin
    bi = np.floor(b).astype(np.int64)
    window = pred[ymin:ymax + 1, xmin:xmax + 1]
    if _ref_axis_aligned(bi) and np.all(b == bi):
        # the filled INTEGRAL quad covers its own AABB window exactly —
        # the common case (axis-aligned text): score = plain window
        # mean.  Fractional corners that merely FLOOR to axis-aligned
        # must take the mask path: the ceil-extended window includes an
        # uncovered fractional margin the mask correctly excludes
        return float(window.mean())
    mask = _ref_fill_poly_mask(window.shape, bi)
    if not mask.any():
        return 0.0
    return float(window[mask].mean())


def _ref_box_score_slow(pred: np.ndarray, contour: np.ndarray) -> float:
    """A3 'slow' score (_ref_box_score_slow, utils.py:363-380): mean prob
    inside the CONTOUR polygon rather than the minAreaRect quad.  Our
    contour analog is the component's convex hull (the union-find run
    extremes play the role of CHAIN_APPROX_SIMPLE's corner chain)."""
    poly = _ref_convex_hull(np.asarray(contour, dtype=np.float64))
    if len(poly) < 3:
        poly = np.asarray(contour, dtype=np.float64).reshape(-1, 2)
    h, w = pred.shape[:2]
    b = poly.copy()
    xmin = int(np.clip(np.floor(b[:, 0].min()), 0, w - 1))
    xmax = int(np.clip(np.ceil(b[:, 0].max()), 0, w - 1))
    ymin = int(np.clip(np.floor(b[:, 1].min()), 0, h - 1))
    ymax = int(np.clip(np.ceil(b[:, 1].max()), 0, h - 1))
    b[:, 0] -= xmin
    b[:, 1] -= ymin
    mask = _ref_fill_poly_mask((ymax - ymin + 1, xmax - xmin + 1), np.floor(b).astype(np.int64))
    if not mask.any():
        return 0.0
    window = pred[ymin:ymax + 1, xmin:xmax + 1]
    return float(window[mask].mean())


def _ref_unclip_rect(box: np.ndarray, unclip_ratio: float) -> tuple[np.ndarray, float]:
    """The reference unclips the minAreaRect quad with a pyclipper
    JT_ROUND offset by d = area*ratio/perimeter, then takes
    minAreaRect again (utils.py:317-324, 305-306).  For a rectangle the
    round offset is the Minkowski sum with a d-disk, whose minimum-area
    rectangle is the SAME rectangle grown by d on every side — so the
    analytic expansion below is exactly the composition the reference
    computes, without pyclipper."""
    b = np.asarray(box, dtype=np.float64)
    w = float(np.hypot(*(b[1] - b[0])))
    h = float(np.hypot(*(b[3] - b[0])))
    if w == 0 or h == 0:
        return b.copy(), 0.0
    area = w * h
    perimeter = 2.0 * (w + h)
    d = area * unclip_ratio / perimeter
    u = (b[1] - b[0]) / w
    v = (b[3] - b[0]) / h
    out = np.array(
        [
            b[0] - u * d - v * d,
            b[1] + u * d - v * d,
            b[2] + u * d + v * d,
            b[3] - u * d + v * d,
        ]
    )
    return _ref_order_mini_box(out), float(min(w, h) + 2 * d)


def _ref_db_postprocess(
    pred: np.ndarray,
    shape_info: tuple[int, int, float, float],
    thresh: float = 0.3,
    box_thresh: float = 0.5,
    max_candidates: int = 1000,
    unclip_ratio: float = 1.6,
    use_dilation: bool = True,
    min_box_side: int = 3,
    score_mode: str = "fast",
) -> tuple[np.ndarray, list[float]]:
    """pred: float32 [H, W] probability map in resized frame.
    Returns (boxes int32 [N,4,2] rotated quads in SOURCE frame, scores).

    ``score_mode``: 'fast' scores the minAreaRect quad (_ref_box_score_fast,
    utils.py:296-299), 'slow' scores the contour polygon itself
    (_ref_box_score_slow, utils.py:300) — tighter on L-shaped components."""
    src_h, src_w, ratio_h, ratio_w = shape_info
    bitmap = pred > thresh
    if use_dilation:
        bitmap = dilate2x2(bitmap)
    comps = _ref_connected_component_points(bitmap)[:max_candidates]  # O3 cap
    out_boxes: list[np.ndarray] = []
    out_scores: list[float] = []
    for pts in comps:
        points, sside = _ref_min_area_rect(pts)
        if sside < min_box_side:  # mini-box drop (utils.py:292-294)
            continue
        if score_mode == "slow":
            score = _ref_box_score_slow(pred, pts)  # A3 slow (utils.py:300)
        else:
            score = _ref_box_score_fast(pred, points)  # A3 (utils.py:296-299)
        if score < box_thresh:
            continue
        box, esside = _ref_unclip_rect(points, unclip_ratio)  # utils.py:302-306
        if esside < min_box_side + 2:
            continue
        # rescale to source frame + clip (utils.py:308-313)
        box = box.copy()
        box[:, 0] = np.clip(np.round(box[:, 0] / ratio_w), 0, src_w)
        box[:, 1] = np.clip(np.round(box[:, 1] / ratio_h), 0, src_h)
        out_boxes.append(box.astype(np.int32))
        out_scores.append(score)
    if not out_boxes:
        return np.zeros((0, 4, 2), dtype=np.int32), []
    return np.stack(out_boxes), out_scores


def _ref_order_points_clockwise(pts: np.ndarray) -> np.ndarray:
    xs = pts[np.argsort(pts[:, 0])]
    left, right = xs[:2], xs[2:]
    left = left[np.argsort(left[:, 1])]      # tl, bl
    right = right[np.argsort(right[:, 1])]   # tr, br
    return np.array([left[0], right[0], right[1], left[1]], dtype=pts.dtype)


def _ref_filter_det_boxes(boxes: np.ndarray, src_h: int, src_w: int) -> np.ndarray:
    kept = []
    for box in boxes:
        b = _ref_order_points_clockwise(box.astype(np.float64))
        b[:, 0] = np.clip(b[:, 0], 0, src_w - 1)
        b[:, 1] = np.clip(b[:, 1], 0, src_h - 1)
        rect_w = int(np.linalg.norm(b[0] - b[1]))
        rect_h = int(np.linalg.norm(b[0] - b[3]))
        if rect_w <= 3 or rect_h <= 3:
            continue
        kept.append(b.astype(np.int32))
    if not kept:
        return np.zeros((0, 4, 2), dtype=np.int32)
    return np.stack(kept)


def _ref_resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with cv2.INTER_LINEAR geometry: half-pixel
    centers (src = (dst+0.5)*scale - 0.5), edge clamp.  Separable —
    interpolate rows then columns.  uint8 in -> uint8 out (round-half-up
    like cv2's fixed-point path); float in -> float out.

    The reference resizes with cv2 INTER_LINEAR at M1/M10/M13
    (ch_ppocr_v3_det/utils.py:184, ch_ppocr_v2_cls/text_cls.py:85,
    ch_ppocr_v3_rec/text_recognize.py:87).

    Grayscale-only contract: 2-D (H, W) input (the engine's bitmaps are
    single-channel end-to-end); the separable weight arrays broadcast
    against 2-D only."""
    assert img.ndim == 2, "_ref_resize_bilinear expects a 2-D grayscale image"
    src_h, src_w = img.shape[:2]
    if (out_h, out_w) == (src_h, src_w):
        return img
    y = (np.arange(out_h) + 0.5) * (src_h / out_h) - 0.5
    x = (np.arange(out_w) + 0.5) * (src_w / out_w) - 0.5
    y0 = np.clip(np.floor(y), 0, src_h - 1).astype(np.int64)
    x0 = np.clip(np.floor(x), 0, src_w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    # float32 accumulation for uint8 inputs: exact for 0..255 pixel
    # values times dyadic-rational weights well inside float32's 24-bit
    # mantissa (cv2's fixed-point path is coarser still); half the
    # memory traffic of float64 on the hot det-resize pass
    dt = np.float32 if img.dtype == np.uint8 else np.float64
    wy = np.clip(y - y0, 0.0, 1.0)[:, None].astype(dt)
    wx = np.clip(x - x0, 0.0, 1.0)[None, :].astype(dt)
    f = img.astype(dt)
    # separable: interpolate rows first (2 row gathers), then columns
    # (2 column gathers) — half the gather traffic of the 4-corner form
    rows_i = f[y0] * (1 - wy) + f[y1] * wy           # [out_h, src_w]
    out = rows_i[:, x0] * (1 - wx) + rows_i[:, x1] * wx
    if img.dtype == np.uint8:
        return np.floor(out + np.float32(0.5)).astype(np.uint8)
    return out.astype(img.dtype)


def _ref_estimate_shear(ink: np.ndarray) -> float:
    """Dominant text-line shear (tan theta) by projection-profile
    maximization: for each candidate angle, flatten lines with a
    per-column integer y-shift and score the row-profile sharpness
    (sum of squared bin counts — maximal when ink concentrates into
    few rows, i.e. when lines are horizontal after the shear).
    Deterministic; returns 0.0 unless a non-zero angle clearly wins."""
    ys, xs = np.nonzero(ink)
    if ys.size < 2:
        return 0.0
    if ys.size > DET_SKEW_SAMPLE:
        step = ys.size // DET_SKEW_SAMPLE + 1
        ys, xs = ys[::step], xs[::step]
    ys = ys.astype(np.int64)
    xs = xs.astype(np.int64)
    best_t, best_v, v0 = 0.0, -1.0, 0.0
    for deg in range(-DET_SKEW_MAX_DEG, DET_SKEW_MAX_DEG + 1):
        t = math.tan(math.radians(deg))
        yp = ys - np.round(xs * t).astype(np.int64)
        yp -= yp.min()
        prof = np.bincount(yp).astype(np.float64)
        v = float((prof * prof).sum())
        if deg == 0:
            v0 = v
        # strict > plus |deg| asc iteration order => smallest winning
        # |angle| is kept on exact ties
        if v > best_v:
            best_v, best_t = v, t
    if best_t != 0.0 and best_v < v0 * DET_SKEW_MARGIN:
        return 0.0
    return best_t


def _ref_cls_resize_norm(img: np.ndarray, shape: tuple = (3, 48, 192)) -> np.ndarray:
    """M10 (ch_ppocr_v2_cls/text_cls.py:76-97): resize to h, keep aspect,
    w capped at imgW; /255, -0.5/0.5; zero-pad right to imgW."""
    _imgC, imgH, imgW = shape
    h, w = img.shape[:2]
    ratio = w / float(h)
    resized_w = imgW if math.ceil(imgH * ratio) > imgW else int(math.ceil(imgH * ratio))
    resized = _ref_resize_bilinear(img, imgH, resized_w).astype(np.float32)
    resized = resized / 255.0
    resized = (resized - 0.5) / 0.5
    out = np.full((3, imgH, imgW), 0.0, dtype=np.float32)
    out[:, :, :resized_w] = resized[None, :, :]
    return out


def _ref_cls_infer(x: np.ndarray, K: float = 20.0) -> np.ndarray:
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
        p0 = 1.0 / (1.0 + np.exp(-K * ratio))
        out[i] = [p0, 1.0 - p0]
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _spiral(n: int) -> np.ndarray:
    """1-px square spiral: one component whose runs chain from the
    outside in — the long-path case for label propagation."""
    m = np.zeros((n, n), dtype=bool)
    y = x = 0
    m[0, 0] = True
    lengths = [n - 1, n - 1, n - 1]
    k = n - 3
    while k > 0:
        lengths += [k, k]
        k -= 2
    for i, steps in enumerate(lengths):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(steps):
            y, x = y + dy, x + dx
            m[y, x] = True
    return m


def _comb(h: int, w: int) -> np.ndarray:
    """Teeth joined only by the bottom row: every tooth is discovered as
    its own root and merged last."""
    m = np.zeros((h, w), dtype=bool)
    m[:-1, ::2] = True
    m[-1] = True
    return m


def _rotated_bar(h: int, w: int, cy: float, cx: float, length: float, width: float, deg: float) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    t = math.radians(deg)
    along = (xx - cx) * math.cos(t) + (yy - cy) * math.sin(t)
    across = -(xx - cx) * math.sin(t) + (yy - cy) * math.cos(t)
    return (np.abs(along) <= length / 2) & (np.abs(across) <= width / 2)


def _bitmaps() -> list[np.ndarray]:
    rng = np.random.default_rng(13)
    maps = [
        np.zeros((0, 7), dtype=bool),
        np.zeros((6, 9), dtype=bool),
        np.ones((1, 1), dtype=bool),
        np.ones((1, 12), dtype=bool),
        np.ones((9, 1), dtype=bool),
        np.eye(8, dtype=bool),
        np.ones((5, 6), dtype=bool),
        _spiral(41),
        _comb(12, 31),
    ]
    for density in (0.05, 0.3, 0.6):
        for _ in range(25):
            h, w = rng.integers(1, 40, size=2)
            maps.append(rng.random((h, w)) < density)
    for _ in range(25):
        m = np.zeros((90, 140), dtype=bool)
        for _ in range(int(rng.integers(1, 6))):
            m |= _rotated_bar(90, 140, rng.uniform(0, 90), rng.uniform(0, 140),
                              rng.uniform(3, 120), rng.uniform(1, 25), rng.uniform(-89, 89))
        maps.append(m)
    return maps


BITMAPS = _bitmaps()


def _preds() -> list[tuple[np.ndarray, tuple]]:
    """Probability maps with their shape_info: binary {0, 0.9} maps (the
    det kernel's output), continuous maps, and a 5-of-9 L whose fast
    score sits on box_thresh (float32 mean 0.5 vs float64 0.49999...)."""
    rng = np.random.default_rng(21)
    out = []
    for m in BITMAPS[7:]:
        h, w = m.shape
        if h < 2 or w < 2:
            continue
        pred = m.astype(np.float32) * np.float32(0.9)
        out.append((pred, (h, w, 1.0, 1.0)))
        noisy = (m * rng.uniform(0.2, 1.0, size=m.shape)).astype(np.float32)
        out.append((noisy, (2 * h + 1, 3 * w, (2 * h + 1) / h, 3.0)))
    ell = np.zeros((8, 8), dtype=np.float32)
    ell[2, 2:5] = 0.9
    ell[3:5, 2] = 0.9
    out.append((ell, (8, 8, 1.0, 1.0)))
    return out


PREDS = _preds()


# ---------------------------------------------------------------------------
# det: labelling, hulls, calipers, db_postprocess, filter
# ---------------------------------------------------------------------------


def test_component_points_match_union_find():
    for m in BITMAPS:
        got = ip.connected_component_points(m)
        want = _ref_connected_component_points(m)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_label_propagation_worst_cases_are_bounded():
    for m in (_spiral(401), _comb(300, 601)):
        t0 = time.perf_counter()
        comps = ip.connected_component_points(m)
        assert time.perf_counter() - t0 < 2.0
        assert len(comps) == 1


def test_row_hulls_match_convex_hull():
    for m in BITMAPS:
        comp, y, xl, xr, n = ip._component_rows(m)
        hx, hy, start, count = ip._row_hulls(comp, y, xl, xr, n)
        for c, pts in enumerate(_ref_connected_component_points(m)):
            got = np.stack([hx, hy], axis=1)[start[c]:start[c] + count[c]]
            assert np.array_equal(got, _ref_convex_hull(pts))


def test_min_area_rects_match_per_edge_calipers():
    """Exact boxes and sides, ties included: the batched projections run
    through the same gemv as ``hull @ u``, so near-tied areas compare as
    in the per-edge loop and the first minimal edge still wins."""
    for m in BITMAPS:
        comp, y, xl, xr, n = ip._component_rows(m)
        boxes, sside = ip._min_area_rects(*ip._row_hulls(comp, y, xl, xr, n))
        for c, pts in enumerate(_ref_connected_component_points(m)):
            box, side = _ref_min_area_rect(pts)
            assert np.array_equal(boxes[c], box)
            assert sside[c] == side


def test_min_area_rect_arbitrary_points():
    rng = np.random.default_rng(5)
    for k in range(300):
        pts = rng.integers(-50, 50, size=(int(rng.integers(1, 30)), 2)).astype(np.float64)
        if k % 2:
            pts = pts @ np.array([[0.8, 0.6], [-0.6, 0.8]]) + rng.uniform(-5, 5, size=2)
        box, side = ip.min_area_rect(pts)
        want_box, want_side = _ref_min_area_rect(pts)
        assert np.array_equal(box, want_box) and side == want_side


def test_unclip_and_order_match_reference():
    rng = np.random.default_rng(8)
    boxes = rng.uniform(-20, 80, size=(200, 4, 2))
    boxes[:20, 1] = boxes[:20, 0]              # zero-width boxes stay as they are
    boxes[20:40] = np.round(boxes[20:40])       # integral corners: x ties in the sort
    for b in boxes:
        assert np.array_equal(ip._order_mini_boxes(b[None])[0], _ref_order_mini_box(b))
        ordered = _ref_order_mini_box(b)
        got, side = ip.unclip_rect(ordered, 1.6)
        want, want_side = _ref_unclip_rect(ordered, 1.6)
        assert np.array_equal(got, want) and side == want_side


@pytest.mark.parametrize("score_mode", ["fast", "slow"])
@pytest.mark.parametrize("use_dilation", [False, True])
@pytest.mark.parametrize("min_box_side", [0, 3])
def test_db_postprocess_matches_per_component_loop(score_mode, use_dilation, min_box_side):
    for pred, shape_info in PREDS:
        kw = dict(use_dilation=use_dilation, score_mode=score_mode, min_box_side=min_box_side)
        boxes, scores = ip.db_postprocess(pred, shape_info, **kw)
        want_boxes, want_scores = _ref_db_postprocess(pred, shape_info, **kw)
        assert np.array_equal(boxes, want_boxes)
        assert np.allclose(scores, want_scores, rtol=0, atol=1e-6)


def test_db_postprocess_max_candidates_keeps_discovery_order():
    m = np.zeros((40, 40), dtype=bool)
    m[::4, ::4] = True
    m = dilate2x2(dilate2x2(m))
    pred = m.astype(np.float32) * np.float32(0.9)
    for cap in (1, 7, 50, 1000):
        got, _ = ip.db_postprocess(pred, (40, 40, 1.0, 1.0), max_candidates=cap, min_box_side=0,
                                   unclip_ratio=0.1, use_dilation=False)
        want, _ = _ref_db_postprocess(pred, (40, 40, 1.0, 1.0), max_candidates=cap, min_box_side=0,
                                      unclip_ratio=0.1, use_dilation=False)
        assert np.array_equal(got, want)


def test_filter_det_boxes_matches_per_box_loop():
    rng = np.random.default_rng(2)
    boxes = rng.integers(-10, 70, size=(300, 4, 2)).astype(np.int32)
    boxes[::7, 1, 0] = boxes[::7, 0, 0]         # x ties
    for src_h, src_w in ((64, 64), (30, 90)):
        assert np.array_equal(ip.filter_det_boxes(boxes, src_h, src_w),
                              _ref_filter_det_boxes(boxes, src_h, src_w))
    assert ip.filter_det_boxes(boxes[:0], 10, 10).shape == (0, 4, 2)
    pts = boxes[5].astype(np.float64)
    assert np.array_equal(ip.order_points_clockwise(pts), _ref_order_points_clockwise(pts))


# ---------------------------------------------------------------------------
# det front half: resize + threshold, shear
# ---------------------------------------------------------------------------


def _pages() -> list[np.ndarray]:
    lines = ["hello world test line", "second line of text", "and a third"]
    pages = [render_page(lines, margin=28, line_gap=32),
             render_page(lines[:2], margin=28, line_gap=32, rotate180=True)]
    return pages + [_rotated_page(lines[:2], deg) for deg in (2.0, 7.0, 15.0)]


def _rotated_page(lines: list[str], deg: float) -> np.ndarray:
    page = render_page(lines, line_gap=32)
    h, w = page.shape
    th = np.deg2rad(deg)
    c, s = np.cos(th), np.sin(th)
    big_h, big_w = int(h * c + w * abs(s)) + 40, int(w * c + h * abs(s)) + 40
    corners = np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.float64)
    rot = (corners - [w / 2, h / 2]) @ np.array([[c, s], [-s, c]]) + [big_w / 2, big_h / 2]
    return warp_perspective(page, perspective_matrix(corners, rot), big_w, big_h)


def test_det_resize_ink_is_resize_then_threshold():
    rng = np.random.default_rng(4)
    imgs = _pages() + [rng.integers(0, 256, size=(77, 130), dtype=np.uint8),
                       np.full((64, 96), 128, dtype=np.uint8)]
    for img in imgs:
        for limit, kind in ((960, "max"), (64, "max"), (200, "min")):
            resized, info = ip.det_resize(img, limit, kind)
            assert np.array_equal(resized, _ref_resize_bilinear(img, *resized.shape))
            ink, info2 = ip.det_resize_ink(img, limit, kind)
            assert info == info2
            assert np.array_equal(ink, resized >= 128)


def test_estimate_shear_matches_per_angle_scan():
    rng = np.random.default_rng(9)
    inks = [ip.det_resize(p)[0] >= 128 for p in _pages()]
    inks += [np.zeros((5, 5), dtype=bool), np.eye(6, dtype=bool),
             rng.random((200, 160)) < 0.7]             # > DET_SKEW_SAMPLE ink pixels
    assert inks[-1].sum() > DET_SKEW_SAMPLE
    for _ in range(30):
        m = np.zeros((120, 200), dtype=bool)
        deg = rng.uniform(-25, 25)
        for _ in range(int(rng.integers(1, 5))):
            m |= _rotated_bar(120, 200, rng.uniform(10, 110), rng.uniform(40, 160),
                              rng.uniform(40, 180), rng.uniform(2, 8), deg)
        inks.append(m | (rng.random(m.shape) < 0.01))
    got = [models._estimate_shear(m) for m in inks]
    assert got == [_ref_estimate_shear(m) for m in inks]
    assert any(t != 0.0 for t in got)


def _ref_ink_to_pred(ink: np.ndarray) -> np.ndarray:
    ink_u8 = ink.astype(np.uint8)
    t = models._estimate_shear(ink)
    if t != 0.0 and models._deskewed_line_bands(ink_u8, t) <= 1:
        # single text band: the axis smear cannot merge anything, and
        # its (proven) geometry feeds the rec warp unchanged — the
        # shear path's integer-shift staircase would only perturb the
        # box by a pixel or two for no separation benefit
        t = 0.0
    if t == 0.0:
        smear = models._axis_smear(ink_u8)
        return smear.astype(np.float32) * np.float32(models.DET_PEAK)
    h, w = ink_u8.shape
    shifts = np.round(np.arange(w, dtype=np.float64) * t).astype(np.int64)
    pad_top = int(max(0, shifts.max()))
    pad_bot = int(max(0, -shifts.min()))
    tall = np.zeros((h + pad_top + pad_bot, w), dtype=np.uint8)
    for s in np.unique(shifts):
        cols = shifts == s
        tall[pad_top - s:pad_top - s + h, cols] = ink_u8[:, cols]
    # +1 horizontal reach: the integer shift staircase costs up to one
    # column of effective H continuity at each step boundary
    tall = models._axis_smear(tall, h_reach=models.DET_H_REACH + 1)
    out = np.empty((h, w), dtype=np.uint8)
    for s in np.unique(shifts):
        cols = shifts == s
        out[:, cols] = tall[pad_top - s:pad_top - s + h, cols]
    return out.astype(np.float32) * np.float32(models.DET_PEAK)


def test_sheared_smear_matches_per_shift_loops():
    """The deskewed smear (one scatter into the tall map, one gather
    out) against the per-shift column loops it replaced, on pages
    sheared both ways and on an upright page."""
    lines = ["hello world test line", "second line of text"]
    upright = ip.det_resize(render_page(lines, line_gap=32))[0] >= 128
    assert models._estimate_shear(upright) == 0.0
    inks = [upright]
    for deg in (2.0, -2.0, 7.0, -7.0, 15.0, -15.0):
        ink = ip.det_resize(_rotated_page(lines, deg))[0] >= 128
        t = models._estimate_shear(ink)
        # the sheared branch must run: a non-zero angle, several bands
        assert np.sign(t) == np.sign(deg), deg
        assert models._deskewed_line_bands(ink.astype(np.uint8), t) > 1, deg
        inks.append(ink)
    for ink in inks:
        got = DetModel().infer_ink(ink)
        want = _ref_ink_to_pred(ink)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_text_detector_matches_reference_pipeline(monkeypatch):
    """The full det path (fused resize + threshold, kernel, array
    post-process) against the reference chain on upright, 180-degree
    and rotated pages."""
    cfg = PipelineConfig().Det
    det = TextDetector(cfg)
    pages = _pages()
    got = [det(p) for p in pages]
    monkeypatch.setattr(models, "_estimate_shear", _ref_estimate_shear)
    for page, boxes in zip(pages, got):
        resized, info = ip.det_resize(page, cfg.limit_side_len, cfg.limit_type)
        pred = DetModel().infer_ink(resized >= 128)
        want, _ = _ref_db_postprocess(pred, info, cfg.thresh, cfg.box_thresh, cfg.max_candidates,
                                      cfg.unclip_ratio, cfg.use_dilation, cfg.min_box_side,
                                      cfg.score_mode)
        assert np.array_equal(boxes, _ref_filter_det_boxes(want, *page.shape))
        assert len(boxes)


# ---------------------------------------------------------------------------
# cls: one batched M10 resize per micro-batch
# ---------------------------------------------------------------------------


def _crops() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    crops = []
    for text in ("hello world", "ab", "a much longer line of text than the cap allows"):
        line = render_line(text)
        crops += [line, line[::-1, ::-1].copy(), np.pad(line, 3)]
    page = render_page(["hello world test line", "second line"], margin=28, line_gap=32)
    crops.append(crop_box(page, np.array([[20, 20], [200, 20], [200, 50], [20, 50]])))
    crops += [
        rng.integers(0, 256, size=(1, 40), dtype=np.uint8),     # 1 px high
        rng.integers(0, 256, size=(1, 1), dtype=np.uint8),
        rng.integers(120, 136, size=(48, 60), dtype=np.uint8),  # identity size, near 128
        rng.integers(0, 256, size=(48, 192), dtype=np.uint8),   # identity at the cap
        rng.integers(0, 256, size=(10, 900), dtype=np.uint8),   # capped at 192 px
        np.zeros((20, 50), dtype=np.uint8),                     # no ink at all
        np.full((15, 30), 1, dtype=np.uint8),                   # faint rows only
    ]
    for _ in range(40):
        h, w = int(rng.integers(1, 70)), int(rng.integers(1, 400))
        crops.append(((rng.random((h, w)) < 0.3) * rng.integers(100, 256)).astype(np.uint8))
    return crops


def test_cls_infer_crops_matches_tensor_path():
    model = ClsModel()
    crops = _crops()
    want = _ref_cls_infer(np.stack([_ref_cls_resize_norm(c) for c in crops]))
    assert np.array_equal(model.infer_crops(crops), want)
    for beg in range(0, len(crops), 6):                         # cls_batch_num micro-batches
        assert np.array_equal(model.infer_crops(crops[beg:beg + 6]), want[beg:beg + 6])
    assert model.infer_crops([]).shape == (0, 2)
