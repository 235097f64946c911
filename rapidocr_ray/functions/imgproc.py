"""Image-processing kernels for the cascade path — faithful, from-scratch
implementations of the reference's pre/post-processing rules (SURVEY.md
§2.2).  Pure numpy; no cv2/pyclipper in this environment, so contour
machinery is an exact-semantics replacement (connected components ->
convex hulls -> rotated minimum-area quads) with the same thresholds,
filters, rounding and ordering rules.  Det post-processing runs as one
array program per page: labelling, hulls, calipers, scoring, unclip
and filtering each cover every component of the page in a fixed set of
numpy calls.  All functions are deterministic and shared verbatim by
the Ray stages and the single-process oracle.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# M1 — DetResizeForTest (ch_ppocr_v3_det/utils.py:101-211), mode 0:
# scale so the min/max side meets limit_side_len, then round H and W to
# multiples of 32.  The x32 rounding is bit-exact per the reference
# (int(round(h*ratio/32)*32)); resize is bilinear with cv2 INTER_LINEAR
# geometry (utils.py:184), implemented in resize_bilinear below.
# ---------------------------------------------------------------------------


def _det_resize_dims(src_h: int, src_w: int, limit_side_len: int, limit_type: str) -> tuple[int, int]:
    h, w = float(src_h), float(src_w)
    if limit_type == "max":
        ratio = float(limit_side_len) / max(h, w) if max(h, w) > limit_side_len else 1.0
    elif limit_type == "min":
        ratio = float(limit_side_len) / min(h, w) if min(h, w) < limit_side_len else 1.0
    else:
        raise ValueError(f"unknown limit_type {limit_type!r}")
    resize_h = int(round(h * ratio / 32.0) * 32)
    resize_w = int(round(w * ratio / 32.0) * 32)
    if resize_h <= 0 or resize_w <= 0:
        raise ValueError("image too small to resize")  # utils.py:178-180 analog
    return resize_h, resize_w


def det_resize(img: np.ndarray, limit_side_len: int = 960, limit_type: str = "max"):
    """Returns (resized_img, (src_h, src_w, ratio_h, ratio_w)).

    Mirrors DetResizeForTest.resize_image_type0: ratio chosen from the
    limit rule, target dims rounded to x32, early-return None analog for
    degenerate sizes (utils.py:178-180) mapped to raising ValueError.
    """
    src_h, src_w = img.shape[:2]
    resize_h, resize_w = _det_resize_dims(src_h, src_w, limit_side_len, limit_type)
    resized = resize_bilinear(img, resize_h, resize_w)
    return resized, (src_h, src_w, resize_h / float(src_h), resize_w / float(src_w))


def det_resize_ink(img: np.ndarray, limit_side_len: int = 960, limit_type: str = "max"):
    """``det_resize`` fused with the det kernel's 128-gray ink threshold
    -> (bool ink map, shape_info); the map equals
    ``det_resize(img)[0] >= 128``.  The uint8 resize rounds the float32
    value v to floor(v + 0.5), and floor(v + 0.5) >= 128 exactly when
    v + 0.5 >= 128 in the same float32 arithmetic, so the threshold is
    taken before the rounding and the uint8 cast."""
    src_h, src_w = img.shape[:2]
    resize_h, resize_w = _det_resize_dims(src_h, src_w, limit_side_len, limit_type)
    if (resize_h, resize_w) == (src_h, src_w):
        ink = img >= 128
    else:
        v = _bilinear(img, resize_h, resize_w)
        v += np.float32(0.5)
        ink = v >= 128
    return ink, (src_h, src_w, resize_h / float(src_h), resize_w / float(src_w))


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize (index mapping floor((i+0.5)/scale))."""
    src_h, src_w = img.shape[:2]
    if (out_h, out_w) == (src_h, src_w):
        return img
    rows = np.minimum((np.arange(out_h) + 0.5) * (src_h / out_h), src_h - 1).astype(np.int64)
    cols = np.minimum((np.arange(out_w) + 0.5) * (src_w / out_w), src_w - 1).astype(np.int64)
    return img[rows][:, cols]


def bilinear_taps(src_n, out_n, dtype=np.float32):
    """cv2.INTER_LINEAR taps along one axis: half-pixel centres
    (src = (dst + 0.5) * scale - 0.5), edge clamp -> (i0, i1, weight of
    i1) per output index.  ``src_n`` and ``out_n`` may also be
    equal-length int arrays: the taps of several 1-D resizes laid end to
    end, each indexing its own source."""
    src_n, out_n = np.atleast_1d(src_n), np.atleast_1d(out_n)
    seg = np.repeat(np.arange(out_n.size), out_n)
    j = np.arange(seg.size) - (np.cumsum(out_n) - out_n)[seg]
    src = src_n[seg]
    s = (j + 0.5) * (src_n / out_n)[seg] - 0.5
    i0 = np.clip(np.floor(s), 0, src - 1).astype(np.int64)
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, np.clip(s - i0, 0.0, 1.0).astype(dtype)


def _bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Unrounded separable bilinear resize of a 2-D image: float32 for
    uint8 input, float64 otherwise.  Rows first (two row gathers), then
    columns (two column gathers) — half the gather traffic of the
    4-corner form; uint8 rows are gathered before the float cast."""
    src_h, src_w = img.shape
    # float32 accumulation for uint8 inputs: exact for 0..255 pixel
    # values times dyadic-rational weights well inside float32's 24-bit
    # mantissa (cv2's fixed-point path is coarser still); half the
    # memory traffic of float64 on the hot det-resize pass
    dt = np.float32 if img.dtype == np.uint8 else np.float64
    y0, y1, wy = bilinear_taps(src_h, out_h, dt)
    x0, x1, wx = bilinear_taps(src_w, out_w, dt)
    wy = wy[:, None]
    rows = np.multiply(img[y0], 1 - wy, dtype=dt)
    rows += np.multiply(img[y1], wy, dtype=dt)     # [out_h, src_w]
    out = rows[:, x0]
    out *= 1 - wx
    right = rows[:, x1]
    right *= wx
    out += right
    return out


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
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
    assert img.ndim == 2, "resize_bilinear expects a 2-D grayscale image"
    if (out_h, out_w) == img.shape:
        return img
    out = _bilinear(img, out_h, out_w)
    if img.dtype == np.uint8:
        return np.floor(out + np.float32(0.5)).astype(np.uint8)
    return out.astype(img.dtype)


# ---------------------------------------------------------------------------
# M2/M3 — NormalizeImage + ToCHWImage (ch_ppocr_v3_det/utils.py:59-87):
# (img*scale - mean)/std with ImageNet stats, then HWC->CHW.  Our pages
# are single-channel; broadcast to 3 channels first so the tensor shape
# contract (NCHW float32) matches the reference exactly.
# ---------------------------------------------------------------------------

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


def normalize_chw(img: np.ndarray) -> np.ndarray:
    """gray uint8 HW -> float32 CHW normalized, C=3.  Written directly
    in CHW (no HWC intermediate / transpose copy); per-channel values
    identical to the reference formula (img*scale - mean)/std."""
    f = img.astype(np.float32) * (1.0 / 255.0)
    out = np.empty((3, img.shape[0], img.shape[1]), dtype=np.float32)
    for c in range(3):
        np.subtract(f, IMAGENET_MEAN[c], out=out[c])
        np.divide(out[c], IMAGENET_STD[c], out=out[c])
    return out


def normalize_ch0(img: np.ndarray) -> np.ndarray:
    """Channel 0 of normalize_chw as a single (H, W) float32 plane —
    bit-identical to normalize_chw(img)[0].  The det kernel reads only
    channel 0 (state/models.py::_ink_from_normalized), so the hot path
    materializes one plane and broadcasts the channel dim (1/3 the
    memory traffic); normalize_chw remains the full-tensor contract."""
    f = img.astype(np.float32) * (1.0 / 255.0)
    np.subtract(f, IMAGENET_MEAN[0], out=f)
    np.divide(f, IMAGENET_STD[0], out=f)
    return f


# ---------------------------------------------------------------------------
# Connected components — replaces cv2.findContours in the DBPostProcess
# chain (M6, ch_ppocr_v3_det/utils.py:280-307) as one array program per
# page over the bitmap's horizontal runs: run extraction, run adjacency,
# min-label propagation.  Every component is labelled by its first run
# in row-major order, so label order is discovery order (top-to-bottom,
# left-to-right), the same "first max_candidates discovered" meaning
# cv2.findContours RETR_LIST gives the O3 cap (utils.py:286).
# ---------------------------------------------------------------------------


def _bitmap_runs(bitmap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bool [H, W] -> (y, x0, x1) int64 arrays of the maximal horizontal
    runs (x1 inclusive) in row-major order.

    One ``flatnonzero`` over the row transitions plus ``divmod``: a 2-D
    ``np.nonzero`` on a page-size map costs ~8x more."""
    h, w = bitmap.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = bitmap
    # transitions alternate start, end within every row: t[y, x] is set
    # where a run starts at x or the run ending at x - 1 stops
    t = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    y, x0 = np.divmod(t[0::2], w + 1)
    x1 = t[1::2] - y * (w + 1) - 1
    return y, x0, x1


def _label_runs(y: np.ndarray, x0: np.ndarray, x1: np.ndarray, w: int) -> np.ndarray:
    """8-connected component of every run -> the index of the
    component's first run (its minimum run index).

    Two runs on adjacent rows touch when [x0 - 1, x1 + 1] overlaps the
    other run; each run finds its touching runs on the previous row by
    ``searchsorted`` over the row-major run keys ``y * (w + 2) + x``.
    Labels are then the minimum run index per component, by hooking
    every edge's larger root onto its smaller one and pointer jumping
    until no edge joins two roots: roots only ever point down, so the
    root reached is the component's minimum index."""
    n = y.size
    stride = w + 2  # x - 1 >= -1 and x + 1 <= w never reach a neighbour row's keys
    lo = np.searchsorted(y * stride + x1, (y - 1) * stride + x0 - 1)
    hi = np.searchsorted(y * stride + x0, (y - 1) * stride + x1 + 1, side="right")
    cnt = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(n), cnt)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    root = np.arange(n)
    while a.size:
        ra, rb = root[a], root[b]
        joins = ra != rb
        if not joins.any():
            break
        a, b, ra, rb = a[joins], b[joins], ra[joins], rb[joins]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return root


def _component_rows(bitmap: np.ndarray, max_candidates: int | None = None):
    """bool [H, W] -> (comp, y, xl, xr, n_comp): the horizontal extremes
    of every (component, row), sorted by component (discovery order)
    then row; only the first ``max_candidates`` components are kept.

    The extremes are all the convex hull (hence minAreaRect) needs."""
    y, x0, x1 = _bitmap_runs(bitmap)
    root = _label_runs(y, x0, x1, bitmap.shape[1])
    is_root = root == np.arange(root.size)
    comp = (np.cumsum(is_root) - 1)[root]
    n_comp = int(is_root.sum())
    if max_candidates is not None and n_comp > max_candidates:
        keep = comp < max_candidates
        comp, y, x0, x1 = comp[keep], y[keep], x0[keep], x1[keep]
        n_comp = max_candidates
    order = np.argsort(comp, kind="stable")  # runs stay row-major per component
    comp, y, x0, x1 = comp[order], y[order], x0[order], x1[order]
    first = np.flatnonzero(np.diff(comp, prepend=-1) | np.diff(y, prepend=-1))
    last = np.append(first[1:] - 1, comp.size - 1)[:first.size]
    # a row's runs are disjoint and sorted by x: the group's first run
    # starts leftmost and its last run ends rightmost
    return comp[first], y[first], x0[first], x1[last], n_comp


def _row_points(comp: np.ndarray, y: np.ndarray, xl: np.ndarray, xr: np.ndarray):
    """Per-row extremes -> (comp, x, y) of the points (xl, y) and, where
    the row is wider than one pixel, (xr, y), in row order."""
    two = xr != xl
    pos = np.arange(comp.size) + np.cumsum(two) - two
    n = comp.size + int(two.sum())
    pc, px, py = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, np.int64)
    pc[pos], px[pos], py[pos] = comp, xl, y
    pc[pos[two] + 1], px[pos[two] + 1], py[pos[two] + 1] = comp[two], xr[two], y[two]
    return pc, px, py


def connected_component_points(bitmap: np.ndarray) -> list[np.ndarray]:
    """8-connected components -> list of per-component point arrays
    [(x, y), ...] in discovery order: each row's leftmost run start and,
    if different, rightmost run end — sufficient for the convex hull,
    hence for minAreaRect.  The per-component view of the labelling
    ``db_postprocess`` runs as one array program."""
    comp, y, xl, xr, n_comp = _component_rows(bitmap)
    pc, px, py = _row_points(comp, y, xl, xr)
    pts = np.stack([px, py], axis=1).astype(np.float64)
    return np.split(pts, np.flatnonzero(np.diff(pc)) + 1) if n_comp else []


# ---------------------------------------------------------------------------
# Rotated-rectangle geometry — pure-numpy replacements for
# cv2.minAreaRect/boxPoints (get_mini_boxes, utils.py:326-345) and
# cv2.fillPoly (box_score_fast, utils.py:347-361).  The det path runs
# them batched over all components of a page; the single-shape functions
# (convex_hull, min_area_rect, unclip_rect, box_score_*) are the
# per-shape forms of the same rules.
# ---------------------------------------------------------------------------


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain -> CCW hull vertices (y axis pointing
    down makes it visually clockwise; orientation is consistent, which
    is all the calipers need).  Scalar cross products — np.cross on
    2-vectors costs ~30x in Python dispatch (profiled at 85% of det
    wall before this).  Used for arbitrary point sets; component hulls
    come batched from ``_row_hulls``."""
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


def _row_hulls(comp: np.ndarray, y: np.ndarray, xl: np.ndarray, xr: np.ndarray, n_comp: int):
    """Convex hulls of all components from their per-row extremes ->
    (hx, hy, start, count): every hull's vertices concatenated, each in
    ``convex_hull``'s order (strict vertices only, starting at the
    smallest (x, y), visually clockwise).

    A component's rows are contiguous, so its hull is the convex
    envelope of its left chain (xl per row) and of its right chain (xr
    per row), joined by the top and bottom rows.  Each envelope comes
    from removing, in parallel and until none is left, every interior
    chain point that does not turn strictly outward between its current
    neighbours: such a point is never a strict hull vertex."""
    m = comp.size
    x = np.concatenate([xl, xr])
    yy = np.concatenate([y, y])
    chain = np.concatenate([comp, comp + n_comp])  # left chains, then right chains
    out = np.repeat(np.array([-1, 1]), m)          # outward x direction of the chain
    while x.size > 2:
        cross = (x[1:-1] - x[:-2]) * (yy[2:] - yy[:-2]) - (x[2:] - x[:-2]) * (yy[1:-1] - yy[:-2])
        drop = (out[1:-1] * cross <= 0) & (chain[:-2] == chain[1:-1]) & (chain[1:-1] == chain[2:])
        if not drop.any():
            break
        keep = np.concatenate([[True], ~drop, [True]])
        x, yy, chain, out = x[keep], yy[keep], chain[keep], out[keep]
    # each cycle: right envelope top -> bottom, then left envelope
    # bottom -> top without the ends it shares with the right one
    left = chain < n_comp
    c = np.where(left, chain, chain - n_comp)
    n_chain = np.bincount(chain, minlength=2 * n_comp)
    first = np.cumsum(n_chain) - n_chain
    last = first + n_chain - 1
    lf, ll, rf, rl = first[:n_comp], last[:n_comp], first[n_comp:], last[n_comp:]
    dup = np.zeros(x.size, dtype=bool)
    dup[lf[x[lf] == x[rf]]] = True                 # shared top pixel
    dup[ll[x[ll] == x[rl]]] = True                 # shared bottom pixel
    rank = np.arange(x.size) - first[chain]
    slot = np.where(left, 2 * x.size - rank, rank)  # right ranks, then reversed left
    keep = np.flatnonzero(~dup)
    keep = keep[np.lexsort((slot[keep], c[keep]))]
    hx, hy, hc = x[keep], yy[keep], c[keep]
    count = np.bincount(hc, minlength=n_comp)
    start = np.cumsum(count) - count
    # rotate every cycle to start at its smallest (x, y)
    key = hx * (int(yy.max(initial=0)) + 1) + hy
    lead = np.flatnonzero(key == np.minimum.reduceat(key, start)[hc]) if n_comp else start
    pos = start[hc] + (np.arange(hx.size) - lead[hc]) % count[hc]
    ox, oy = np.empty_like(hx), np.empty_like(hy)
    ox[pos], oy[pos] = hx, hy
    return ox, oy, start, count


def _first_edge_wins(area: np.ndarray) -> np.ndarray:
    """Row-wise index picked by the sequential caliper rule "the first
    edge wins unless a later one is smaller by more than 1e-12"
    (``best is None or area < best - 1e-12``).  Rows without a near tie
    (every area equal to the minimum or above it by more than 1e-12)
    pick their first minimum; the others replay the rule per edge
    position across rows."""
    m = area.min(axis=1, keepdims=True)
    pick = area.argmin(axis=1)
    clean = ((area == m) | (m < area - 1e-12)).all(axis=1)
    rows = np.flatnonzero(~clean)
    if rows.size:
        sub = area[rows]
        best = sub[:, 0].copy()
        idx = np.zeros(rows.size, dtype=np.intp)
        for i in range(1, sub.shape[1]):
            better = sub[:, i] < best - 1e-12
            best[better] = sub[better, i]
            idx[better] = i
        pick[rows] = idx
    return pick


def _order_mini_boxes(boxes: np.ndarray) -> np.ndarray:
    """get_mini_boxes point ordering (utils.py:329-344) of [N, 4, 2]
    corners: stable sort by x, then resolve each x-pair by y ->
    [tl, tr, br, bl]."""
    s = np.take_along_axis(boxes, np.argsort(boxes[:, :, 0], axis=1, kind="stable")[:, :, None], axis=1)
    i1 = np.where(s[:, 1, 1] > s[:, 0, 1], 0, 1)
    i2 = np.where(s[:, 3, 1] > s[:, 2, 1], 2, 3)
    idx = np.stack([i1, i2, 5 - i2, 1 - i1], axis=1)
    return np.take_along_axis(s, idx[:, :, None], axis=1)


def _calipers(pts: np.ndarray, start: np.ndarray, count: np.ndarray):
    """Rotating calipers over every edge of hulls of >= 3 vertices ->
    (unordered boxes [N, 4, 2], sside [N]); see ``_min_area_rects``."""
    cnt = count[:, None]
    nmax = int(cnt.max())
    i = np.arange(nmax)[None, :]
    hull = pts[start[:, None] + np.minimum(i, cnt - 1)]             # [N, nmax, 2]
    e = hull[np.arange(count.size)[:, None], (i + 1) % cnt] - hull  # edge i of every hull
    norm = np.hypot(e[..., 0], e[..., 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        u = e / norm[..., None]
    v = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    pu = (hull[:, None] @ u[..., None])[..., 0]                     # [N, edge, vertex]
    pv = (hull[:, None] @ v[..., None])[..., 0]
    u0, v0 = pu.min(axis=2), pv.min(axis=2)
    w = pu.max(axis=2) - u0
    h = pv.max(axis=2) - v0
    k = _first_edge_wins(np.where(i < cnt, w * h, np.inf))
    r = np.arange(count.size)
    u, v, u0, v0, w, h = u[r, k], v[r, k], u0[r, k, None], v0[r, k, None], w[r, k, None], h[r, k, None]
    c00 = u * u0 + v * v0
    boxes = np.stack([c00, c00 + u * w, c00 + u * w + v * h, c00 + v * h], axis=1)
    return boxes, np.minimum(w, h)[:, 0]


def _min_area_rects(hx: np.ndarray, hy: np.ndarray, start: np.ndarray, count: np.ndarray):
    """Minimum-area enclosing rectangles of many hulls (each in
    ``convex_hull`` order) by rotating calipers over every hull edge at
    once -> (boxes [N, 4, 2] in get_mini_boxes order, sside [N]).

    Per hull this is the rule of the per-edge loop it replaces: project
    the hull on the edge direction u and its normal v, take the extents,
    keep the first minimal area (``_first_edge_wins``).  The projections
    are one stacked matmul of [nmax, 2] hull matrices by [2, 1] edge
    directions: numpy runs it as one BLAS gemv per edge, the call
    ``hull @ u`` makes, so the projections are bit-identical to it (an
    elementwise or einsum form differs in the last bit, enough to flip
    near-tied areas).  Hulls are stacked per power-of-two size class,
    short ones padded by repeating their last vertex (which leaves every
    extent unchanged), so padding at most doubles a hull's work.  Hulls
    of one or two points give the degenerate boxes [p, p, p, p] /
    [p, q, q, p] with sside 0."""
    boxes = np.zeros((count.size, 4, 2), dtype=np.float64)
    sside = np.zeros(count.size, dtype=np.float64)
    pts = np.stack([hx, hy], axis=1).astype(np.float64)
    flat = count <= 2
    p = pts[start[flat]]
    q = pts[start[flat] + count[flat] - 1]
    boxes[flat] = np.stack([p, q, q, p], axis=1)
    size_class = np.frexp(count)[1]
    for c in np.unique(size_class[~flat]):
        sel = np.flatnonzero(~flat & (size_class == c))
        boxes[sel], sside[sel] = _calipers(pts, start[sel], count[sel])
    return _order_mini_boxes(boxes), sside


def min_area_rect(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-area enclosing rectangle (rotating calipers over the
    convex hull) -> (4 corner points ordered by the reference's
    get_mini_boxes rule [tl, tr, br, bl], sside = min(w, h)).

    Functional replacement for cv2.minAreaRect + cv2.boxPoints +
    get_mini_boxes (utils.py:326-345); deterministic ties (first
    minimal hull edge wins)."""
    hull = convex_hull(np.asarray(points, dtype=np.float64))
    box, sside = _min_area_rects(
        hull[:, 0], hull[:, 1], np.zeros(1, dtype=np.int64), np.array([len(hull)])
    )
    return box[0], float(sside[0])


def fill_poly_mask(shape: tuple[int, int], quad: np.ndarray) -> np.ndarray:
    """Boolean mask of pixels inside or on the polygon — the
    cv2.fillPoly analog used by box_score_fast (utils.py:354-360).
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


def box_score_fast(pred: np.ndarray, box: np.ndarray) -> float:
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
    if _axis_aligned(bi) and np.all(b == bi):
        # the filled INTEGRAL quad covers its own AABB window exactly —
        # the common case (axis-aligned text): score = plain window
        # mean.  Fractional corners that merely FLOOR to axis-aligned
        # must take the mask path: the ceil-extended window includes an
        # uncovered fractional margin the mask correctly excludes
        return float(window.mean())
    mask = fill_poly_mask(window.shape, bi)
    if not mask.any():
        return 0.0
    return float(window[mask].mean())


def box_score_slow(pred: np.ndarray, contour: np.ndarray) -> float:
    """A3 'slow' score (box_score_slow, utils.py:363-380): mean prob
    inside the CONTOUR polygon rather than the minAreaRect quad.  Our
    contour analog is the component's convex hull (the union-find run
    extremes play the role of CHAIN_APPROX_SIMPLE's corner chain)."""
    poly = convex_hull(np.asarray(contour, dtype=np.float64))
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
    mask = fill_poly_mask((ymax - ymin + 1, xmax - xmin + 1), np.floor(b).astype(np.int64))
    if not mask.any():
        return 0.0
    window = pred[ymin:ymax + 1, xmin:xmax + 1]
    return float(window[mask].mean())


def _convex_polygon_means(pred: np.ndarray, px: np.ndarray, py: np.ndarray, start: np.ndarray, count: np.ndarray):
    """Mean of ``pred`` over the box_score_fast/slow mask of many
    polygons at once -> float64 [P]; NaN for a polygon that is not
    strictly convex after flooring.

    Each polygon is windowed and floored as the per-shape scorers do.
    For a strictly convex polygon with integer vertices the mask
    ``fill_poly_mask`` fills (even-odd interior of the half-open row
    crossings plus every lattice point on an edge) is, on every row r,
    exactly the integers in [L(r), R(r)], the polygon's extent on that
    row: so per (polygon, row) it is the closed interval
    [min ceil(x), max floor(x)] over the non-horizontal edges touching
    the row (integer arithmetic), summed from row prefix sums of the
    rows any interval touches.  Sums are float64, so a mean differs
    from the per-shape scorer's float32 mean in the last bits only."""
    h, w = pred.shape
    n = count.size
    p_of = np.repeat(np.arange(n), count)
    xmin = np.clip(np.floor(np.minimum.reduceat(px, start)), 0, w - 1).astype(np.int64)
    xmax = np.clip(np.ceil(np.maximum.reduceat(px, start)), 0, w - 1).astype(np.int64)
    ymin = np.clip(np.floor(np.minimum.reduceat(py, start)), 0, h - 1).astype(np.int64)
    ymax = np.clip(np.ceil(np.maximum.reduceat(py, start)), 0, h - 1).astype(np.int64)
    x1 = np.floor(px - xmin[p_of]).astype(np.int64)
    y1 = np.floor(py - ymin[p_of]).astype(np.int64)
    nxt = np.arange(px.size) + 1
    wrap = nxt == (start + count)[p_of]
    nxt[wrap] = start[p_of[wrap]]
    dx, dy = x1[nxt] - x1, y1[nxt] - y1
    turn = dx * dy[nxt] - dy * dx[nxt]
    n_pos = np.bincount(p_of, weights=turn > 0, minlength=n)
    n_neg = np.bincount(p_of, weights=turn < 0, minlength=n)
    convex = (count >= 3) & ((n_pos == count) | (n_neg == count))
    # (polygon, window row) slots: rows top..bottom of each polygon
    top = np.minimum.reduceat(y1, start)
    n_rows = np.maximum.reduceat(y1, start) - top + 1
    slot0 = np.cumsum(n_rows) - n_rows
    # every non-horizontal edge touches rows min(y)..max(y), both ends included
    r_lo = np.minimum(y1, y1 + dy)
    n_r = np.where((dy != 0) & convex[p_of], np.abs(dy) + 1, 0)
    e = np.repeat(np.arange(px.size), n_r)
    r = np.arange(e.size) + np.repeat(r_lo - (np.cumsum(n_r) - n_r), n_r)
    num = (r - y1[e]) * dx[e] * np.sign(dy[e])
    den = np.abs(dy[e])
    slot = slot0[p_of[e]] + r - top[p_of[e]]
    lo = np.full(int(n_rows.sum()), np.iinfo(np.int64).max)
    hi = np.full(lo.size, np.iinfo(np.int64).min)
    np.minimum.at(lo, slot, x1[e] - (-num // den))    # ceil
    np.maximum.at(hi, slot, x1[e] + num // den)       # floor
    sp = np.repeat(np.arange(n), n_rows)
    row = np.arange(lo.size) - slot0[sp] + top[sp]
    ok = (row >= 0) & (row <= ymax[sp] - ymin[sp]) & convex[sp]
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, xmax[sp] - xmin[sp])
    ok &= hi >= lo
    sp, row, lo, hi = sp[ok], row[ok] + ymin[sp[ok]], lo[ok] + xmin[sp[ok]], hi[ok] + xmin[sp[ok]]
    # prefix sums over the touched page rows only
    touched = np.zeros(h, dtype=bool)
    touched[row] = True
    rows = np.flatnonzero(touched)
    csum = np.zeros((rows.size, w + 1))
    np.cumsum(pred[rows], axis=1, dtype=np.float64, out=csum[:, 1:])
    ri = np.searchsorted(rows, row)
    sums = np.bincount(sp, weights=csum[ri, hi + 1] - csum[ri, lo], minlength=n)
    cnts = np.bincount(sp, weights=hi - lo + 1, minlength=n)
    means = np.where(cnts > 0, sums / np.maximum(cnts, 1), 0.0)
    return np.where(convex, means, np.nan)


def _unclip_rects(boxes: np.ndarray, unclip_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """``unclip_rect`` over [N, 4, 2] ordered boxes -> (grown boxes in
    get_mini_boxes order, sside after growth).  A box with a zero side
    is returned unchanged with sside 0."""
    e1 = boxes[:, 1] - boxes[:, 0]
    e3 = boxes[:, 3] - boxes[:, 0]
    w = np.hypot(e1[:, 0], e1[:, 1])[:, None]
    h = np.hypot(e3[:, 0], e3[:, 1])[:, None]
    flat = (w == 0) | (h == 0)
    w1, h1 = np.where(flat, 1.0, w), np.where(flat, 1.0, h)
    d = w1 * h1 * unclip_ratio / (2.0 * (w1 + h1))
    u = e1 / w1
    v = e3 / h1
    grown = np.stack(
        [
            boxes[:, 0] - u * d - v * d,
            boxes[:, 1] + u * d - v * d,
            boxes[:, 2] + u * d + v * d,
            boxes[:, 3] - u * d + v * d,
        ],
        axis=1,
    )
    out = np.where(flat[:, :, None], boxes, _order_mini_boxes(grown))
    return out, np.where(flat, 0.0, np.minimum(w1, h1) + 2 * d)[:, 0]


def unclip_rect(box: np.ndarray, unclip_ratio: float) -> tuple[np.ndarray, float]:
    """The reference unclips the minAreaRect quad with a pyclipper
    JT_ROUND offset by d = area*ratio/perimeter, then takes
    minAreaRect again (utils.py:317-324, 305-306).  For a rectangle the
    round offset is the Minkowski sum with a d-disk, whose minimum-area
    rectangle is the SAME rectangle grown by d on every side — so the
    analytic expansion is exactly the composition the reference
    computes, without pyclipper."""
    out, sside = _unclip_rects(np.asarray(box, dtype=np.float64)[None], unclip_ratio)
    return out[0], float(sside[0])


def _contour_polygons(comp, y, xl, xr, hx, hy, hcount, cand):
    """box_score_slow's polygon of every candidate component, as
    (x, y, count): its hull, or its raw row points when the hull has
    fewer than 3 vertices."""
    hc = np.repeat(np.arange(hcount.size), hcount)
    pc, px, py = _row_points(comp, y, xl, xr)
    hull_ok = hcount >= 3
    vc = np.concatenate([hc[hull_ok[hc]], pc[~hull_ok[pc]]])
    order = np.argsort(vc, kind="stable")
    vc = vc[order]
    vx = np.concatenate([hx[hull_ok[hc]], px[~hull_ok[pc]]])[order]
    vy = np.concatenate([hy[hull_ok[hc]], py[~hull_ok[pc]]])[order]
    sel = np.isin(vc, cand)
    return vx[sel], vy[sel], np.bincount(vc[sel], minlength=hcount.size)[cand]


def dilate2x2(bitmap: np.ndarray) -> np.ndarray:
    """cv2.dilate with a 2x2 ones kernel (anchor top-left), as in
    DBPostProcess when use_dilation is set (utils.py:264-270)."""
    out = bitmap.copy()
    out[1:, :] |= bitmap[:-1, :]
    out[:, 1:] |= bitmap[:, :-1]
    out[1:, 1:] |= bitmap[:-1, :-1]
    return out


# ---------------------------------------------------------------------------
# M6 — DBPostProcess (ch_ppocr_v3_det/utils.py:248-401), numpy edition.
# prob map -> bitmap -> components -> minAreaRect (rotated quads) ->
# fast polygon score -> analytic JT_ROUND unclip -> minAreaRect ->
# rescale.  Faithful flow of boxes_from_bitmap (utils.py:269-316) with
# the cv2/pyclipper calls replaced by the pure-numpy geometry above,
# each step one array program over all components of the page.
# ---------------------------------------------------------------------------

# A box whose float64 score lies this close to box_thresh is re-scored by
# the float32 per-shape scorer, so the keep/drop decision is the one the
# reference's float32 window mean makes.  Over a probability map in
# [0, 1] the float32 mean is off by at most ~rows * 2**-24 < 1e-3.
SCORE_TIE_MARGIN = 1e-3


def db_postprocess(
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

    ``score_mode``: 'fast' scores the minAreaRect quad (box_score_fast,
    utils.py:296-299), 'slow' scores the contour polygon itself
    (box_score_slow, utils.py:300) — tighter on L-shaped components."""
    src_h, src_w, ratio_h, ratio_w = shape_info
    bitmap = pred > thresh
    if use_dilation:
        bitmap = dilate2x2(bitmap)
    comp, y, xl, xr, n_comp = _component_rows(bitmap, max_candidates)  # O3 cap
    hx, hy, hstart, hcount = _row_hulls(comp, y, xl, xr, n_comp)
    boxes, sside = _min_area_rects(hx, hy, hstart, hcount)
    cand = np.flatnonzero(sside >= min_box_side)  # mini-box drop (utils.py:292-294)
    if score_mode == "slow":  # A3 slow (utils.py:300): the contour polygon
        polx, poly, pcount = _contour_polygons(comp, y, xl, xr, hx, hy, hcount, cand)
    else:  # A3 fast (utils.py:296-299): the minAreaRect quad
        polx = boxes[cand, :, 0].reshape(-1)
        poly = boxes[cand, :, 1].reshape(-1)
        pcount = np.full(cand.size, 4)
    scores = np.zeros(0)
    if cand.size:
        scores = _convex_polygon_means(pred, polx, poly, np.cumsum(pcount) - pcount, pcount)
    # rare: a polygon floored out of strict convexity (NaN), or a score
    # near the threshold — the per-shape float32 scorer decides
    redo = np.isnan(scores) | (np.abs(scores - box_thresh) <= SCORE_TIE_MARGIN)
    for j in np.flatnonzero(redo):
        if score_mode == "slow":
            rows = comp == cand[j]
            _, px, py = _row_points(comp[rows], y[rows], xl[rows], xr[rows])
            scores[j] = box_score_slow(pred, np.stack([px, py], axis=1).astype(np.float64))
        else:
            scores[j] = box_score_fast(pred, boxes[cand[j]])
    keep = scores >= box_thresh
    cand, scores = cand[keep], scores[keep]
    grown, esside = _unclip_rects(boxes[cand], unclip_ratio)  # utils.py:302-306
    keep = esside >= min_box_side + 2
    grown, scores = grown[keep], scores[keep]
    # rescale to source frame + clip (utils.py:308-313)
    grown[:, :, 0] = np.clip(np.round(grown[:, :, 0] / ratio_w), 0, src_w)
    grown[:, :, 1] = np.clip(np.round(grown[:, :, 1] / ratio_h), 0, src_h)
    return grown.astype(np.int32), scores.tolist()


# ---------------------------------------------------------------------------
# M19 — order_points_clockwise (ch_ppocr_v3_det/text_detect.py:84-107):
# canonical tl,tr,br,bl by x-sort then y-sort of the two halves.
# ---------------------------------------------------------------------------


def _order_clockwise(boxes: np.ndarray) -> np.ndarray:
    """order_points_clockwise over [N, 4, 2] boxes (stable sorts, as
    np.argsort sorts four elements)."""
    s = np.take_along_axis(boxes, np.argsort(boxes[:, :, 0], axis=1, kind="stable")[:, :, None], axis=1)
    lswap = s[:, 1, 1] < s[:, 0, 1]
    rswap = s[:, 3, 1] < s[:, 2, 1]
    idx = np.stack([lswap, 2 + rswap, 3 - rswap, 1 - lswap], axis=1).astype(np.intp)
    return np.take_along_axis(s, idx[:, :, None], axis=1)


def order_points_clockwise(pts: np.ndarray) -> np.ndarray:
    return _order_clockwise(np.asarray(pts)[None])[0]


# ---------------------------------------------------------------------------
# M7 — filter_tag_det_res (ch_ppocr_v3_det/text_detect.py:109-127):
# canonicalize, clip to bounds, drop boxes with a side <= 3 px.
# ---------------------------------------------------------------------------


def filter_det_boxes(boxes: np.ndarray, src_h: int, src_w: int) -> np.ndarray:
    b = _order_clockwise(np.asarray(boxes, dtype=np.float64).reshape(-1, 4, 2))
    b[:, :, 0] = np.clip(b[:, :, 0], 0, src_w - 1)
    b[:, :, 1] = np.clip(b[:, :, 1], 0, src_h - 1)
    # integer corners: the squared side lengths are exact, so the
    # truncated sqrt is the reference's int(np.linalg.norm(...))
    rect_w = np.sqrt(((b[:, 0] - b[:, 1]) ** 2).sum(axis=1)).astype(np.int64)
    rect_h = np.sqrt(((b[:, 0] - b[:, 3]) ** 2).sum(axis=1)).astype(np.int64)
    return b[(rect_w > 3) & (rect_h > 3)].astype(np.int32)


# ---------------------------------------------------------------------------
# M8 — sorted_boxes (rapid_ocr_api.py:152-174): sort by (y, x), then one
# adjacent-swap pass where boxes whose top-y differs by < 10 px are
# re-ordered by x.  This ordering defines output text concatenation and
# must be exact.
# ---------------------------------------------------------------------------


def sorted_boxes(boxes: np.ndarray) -> list[np.ndarray]:
    n = boxes.shape[0]
    sb = sorted(boxes, key=lambda b: (b[0][1], b[0][0]))
    out = list(sb)
    for i in range(n - 1):
        for j in range(i, -1, -1):
            if (
                abs(out[j + 1][0][1] - out[j][0][1]) < 10
                and out[j + 1][0][0] < out[j][0][0]
            ):
                out[j], out[j + 1] = out[j + 1], out[j]
            else:
                break
    return out


# ---------------------------------------------------------------------------
# M9 — get_rotate_crop_image (rapid_ocr_api.py:121-150): perspective-warp
# the quad upright (bilinear inverse map with BORDER_REPLICATE — the
# reference uses INTER_CUBIC, a documented interpolation divergence);
# rotate 90 deg CCW if h/w >= 1.5.  Axis-aligned integer quads take an
# exact array-slice fast path (bit-identical to the identity warp).
# ---------------------------------------------------------------------------


def perspective_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """3x3 homography mapping src quad -> dst quad
    (cv2.getPerspectiveTransform analog: 8-unknown linear solve)."""
    a = np.zeros((8, 8), dtype=np.float64)
    b = np.zeros(8, dtype=np.float64)
    for i in range(4):
        sx, sy = src[i]
        dx, dy = dst[i]
        a[2 * i] = [sx, sy, 1, 0, 0, 0, -sx * dx, -sy * dx]
        a[2 * i + 1] = [0, 0, 0, sx, sy, 1, -sx * dy, -sy * dy]
        b[2 * i] = dx
        b[2 * i + 1] = dy
    coeff = np.linalg.solve(a, b)
    return np.append(coeff, 1.0).reshape(3, 3)


def warp_perspective(
    img: np.ndarray, m: np.ndarray, out_w: int, out_h: int
) -> np.ndarray:
    """Inverse-map bilinear warp with border replicate
    (cv2.warpPerspective analog; rapid_ocr_api.py:134-139)."""
    minv = np.linalg.inv(m)
    xs, ys = np.meshgrid(np.arange(out_w, dtype=np.float64),
                         np.arange(out_h, dtype=np.float64))
    denom = minv[2, 0] * xs + minv[2, 1] * ys + minv[2, 2]
    sx = (minv[0, 0] * xs + minv[0, 1] * ys + minv[0, 2]) / denom
    sy = (minv[1, 0] * xs + minv[1, 1] * ys + minv[1, 2]) / denom
    h, w = img.shape[:2]
    sx = np.clip(sx, 0, w - 1)
    sy = np.clip(sy, 0, h - 1)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    f = img.astype(np.float64)
    out = (
        f[y0, x0] * (1 - fx) * (1 - fy)
        + f[y0, x1] * fx * (1 - fy)
        + f[y1, x0] * (1 - fx) * fy
        + f[y1, x1] * fx * fy
    )
    if img.dtype == np.uint8:
        return np.floor(out + 0.5).astype(np.uint8)
    return out.astype(img.dtype)


def _axis_aligned(b: np.ndarray) -> bool:
    return (
        b[0][1] == b[1][1]
        and b[2][1] == b[3][1]
        and b[0][0] == b[3][0]
        and b[1][0] == b[2][0]
    )


def crop_box(img: np.ndarray, box: np.ndarray) -> np.ndarray:
    b = box.astype(np.float64)
    img_crop_width = int(max(np.linalg.norm(b[0] - b[1]), np.linalg.norm(b[2] - b[3])))
    img_crop_height = int(max(np.linalg.norm(b[0] - b[3]), np.linalg.norm(b[1] - b[2])))
    if img_crop_width <= 0 or img_crop_height <= 0:
        return np.zeros((1, 1), dtype=img.dtype)
    if _axis_aligned(box):
        # exact fast path: identity warp == slice (+replicate padding
        # never needed because det boxes are clipped to the image)
        x0 = max(0, int(b[:, 0].min()))
        y0 = max(0, int(b[:, 1].min()))
        crop = img[y0:min(y0 + img_crop_height, img.shape[0]),
                   x0:min(x0 + img_crop_width, img.shape[1])]
        if crop.size == 0:
            return np.zeros((1, 1), dtype=img.dtype)
    else:
        pts_std = np.array(
            [[0, 0], [img_crop_width, 0], [img_crop_width, img_crop_height],
             [0, img_crop_height]], dtype=np.float64
        )
        m = perspective_matrix(b, pts_std)
        crop = warp_perspective(img, m, img_crop_width, img_crop_height)
    # rotate 90 deg CCW when tall (rapid_ocr_api.py:144-148, np.rot90 k=1)
    if crop.shape[0] * 1.0 / crop.shape[1] >= 1.5:
        crop = np.rot90(crop).copy()
    return crop


def rotate180(img: np.ndarray) -> np.ndarray:
    """cv2.rotate(img, ROTATE_180) analog (ch_ppocr_v2_cls/text_cls.py:71)."""
    return img[::-1, ::-1].copy()


# ---------------------------------------------------------------------------
# M17 — det-bypass routing predicate + whole-image box
# (rapid_ocr_api.py:69-77,114-119 get_boxes_img_without_det).
# ---------------------------------------------------------------------------


def use_det_bypass(h: int, w: int, min_height: int = 30, width_height_ratio: float = 8.0) -> bool:
    if width_height_ratio < 0:  # -1 disables the ratio rule (utils.py arg semantics)
        return h <= min_height
    return h <= min_height or w / max(h, 1) > width_height_ratio


def whole_image_box(h: int, w: int) -> np.ndarray:
    return np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.int32)
