"""Unit fixtures for the M1/M6/M7/M8/M17/M19 kernels (FIXTURES.md F3)."""

import numpy as np
import pytest

from rapidocr_ray.functions import imgproc as ip


class TestDetResize:
    """M1 x32 rounding rules (ch_ppocr_v3_det/utils.py:144-211)."""

    def test_small_image_identity_ratio(self):
        img = np.zeros((100, 200), dtype=np.uint8)
        out, (sh, sw, rh, rw) = ip.det_resize(img, 960, "max")
        # 100 -> round(100/32)*32 = 96; 200 -> round(200/32)*32 = 192
        assert out.shape == (96, 192)
        assert (sh, sw) == (100, 200)
        assert rh == 96 / 100 and rw == 192 / 200

    def test_max_limit_applies(self):
        img = np.zeros((500, 2000), dtype=np.uint8)
        out, (_, _, rh, rw) = ip.det_resize(img, 960, "max")
        ratio = 960 / 2000
        assert out.shape == (
            int(round(500 * ratio / 32) * 32),
            int(round(2000 * ratio / 32) * 32),
        )

    def test_min_limit(self):
        img = np.zeros((16, 64), dtype=np.uint8)
        out, _ = ip.det_resize(img, 32, "min")
        assert out.shape[0] % 32 == 0 and out.shape[0] >= 32

    def test_round_half_even_boundary(self):
        # 112/32 = 3.5 -> python round-half-even -> 4 -> 128
        img = np.zeros((112, 640), dtype=np.uint8)
        out, _ = ip.det_resize(img, 960, "max")
        assert out.shape[0] == 128

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            ip.det_resize(np.zeros((1, 2000), dtype=np.uint8), 960, "max")


def test_resize_nearest_integer_upscale_exact():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    up = ip.resize_nearest(img, 12, 16)
    assert (up[::4, ::4] == img).all()


def test_order_points_clockwise():
    pts = np.array([[10, 10], [0, 0], [10, 0], [0, 10]], dtype=np.float64)
    out = ip.order_points_clockwise(pts)
    assert (out == np.array([[0, 0], [10, 0], [10, 10], [0, 10]])).all()


class TestSortedBoxes:
    """M8 10-px tolerance rule (rapid_ocr_api.py:152-174)."""

    @staticmethod
    def box(x, y, w=20, h=10):
        return np.array([[x, y], [x + w, y], [x + w, y + h], [x, y + h]], dtype=np.int32)

    def test_reading_order(self):
        b1 = self.box(0, 0)
        b2 = self.box(50, 3)   # same visual line (dy < 10) but right
        b3 = self.box(0, 40)
        out = ip.sorted_boxes(np.stack([b3, b2, b1]))
        assert [tuple(b[0]) for b in out] == [(0, 0), (50, 3), (0, 40)]

    def test_tolerance_boundary(self):
        # dy = 10 exactly -> NOT same line, stays y-ordered
        b1 = self.box(50, 0)
        b2 = self.box(0, 10)
        out = ip.sorted_boxes(np.stack([b1, b2]))
        assert [tuple(b[0]) for b in out] == [(50, 0), (0, 10)]
        # dy = 9 -> same line, x order wins
        b3 = self.box(0, 9)
        out = ip.sorted_boxes(np.stack([b1, b3]))
        assert [tuple(b[0]) for b in out] == [(0, 9), (50, 0)]


def test_connected_components_basic():
    m = np.zeros((10, 10), dtype=bool)
    m[1:3, 1:4] = True
    m[6:9, 5:8] = True
    m[5, 4] = True  # 8-connected diagonally to the second blob
    comps = ip.connected_component_points(m)
    boxes = [
        (int(p[:, 0].min()), int(p[:, 1].min()), int(p[:, 0].max()), int(p[:, 1].max()))
        for p in comps
    ]
    assert len(boxes) == 2
    assert boxes[0] == (1, 1, 3, 2)
    assert boxes[1] == (4, 5, 7, 8)


def test_dilate2x2():
    m = np.zeros((4, 4), dtype=bool)
    m[1, 1] = True
    d = ip.dilate2x2(m)
    assert d.sum() == 4 and d[1, 1] and d[2, 2]


class TestDBPostprocess:
    """M6 on synthetic probability maps (FIXTURES.md F3)."""

    def test_box_found_and_scored(self):
        pred = np.zeros((64, 64), dtype=np.float32)
        pred[10:20, 8:40] = 0.9
        boxes, scores = ip.db_postprocess(
            pred, (64, 64, 1.0, 1.0), use_dilation=False
        )
        assert len(boxes) == 1
        assert scores[0] == pytest.approx(0.9)
        (x0, y0) = boxes[0][0]
        assert x0 < 8 and y0 < 10  # unclip expanded beyond the blob

    def test_below_box_thresh_dropped(self):
        pred = np.zeros((64, 64), dtype=np.float32)
        pred[10:20, 8:40] = 0.4  # above bitmap thresh 0.3, below box 0.5
        boxes, _ = ip.db_postprocess(pred, (64, 64, 1.0, 1.0), use_dilation=False)
        assert len(boxes) == 0

    def test_tiny_blob_dropped(self):
        pred = np.zeros((64, 64), dtype=np.float32)
        pred[10:12, 10:12] = 0.9  # 2x2 < min side 3
        boxes, _ = ip.db_postprocess(pred, (64, 64, 1.0, 1.0), use_dilation=False)
        assert len(boxes) == 0

    def test_rescale_to_source(self):
        pred = np.zeros((32, 32), dtype=np.float32)
        pred[8:16, 8:24] = 0.9
        boxes, _ = ip.db_postprocess(pred, (64, 64, 0.5, 0.5), use_dilation=False)
        assert len(boxes) == 1
        assert boxes[0][:, 0].max() <= 64 and boxes[0][:, 1].max() <= 64
        assert boxes[0][2][0] >= 40  # roughly 24/0.5 + margin


def test_filter_det_boxes_drops_slivers():
    good = np.array([[0, 0], [30, 0], [30, 12], [0, 12]], dtype=np.int32)
    sliver = np.array([[0, 0], [2, 0], [2, 12], [0, 12]], dtype=np.int32)
    out = ip.filter_det_boxes(np.stack([good, sliver]), 100, 100)
    assert out.shape[0] == 1


class TestRouting:
    """M17 det-bypass predicate (rapid_ocr_api.py:69-77)."""

    def test_short_bypasses(self):
        assert ip.use_det_bypass(28, 600)
        assert ip.use_det_bypass(30, 10)

    def test_wide_bypasses(self):
        assert ip.use_det_bypass(60, 600)  # ratio 10 > 8

    def test_normal_page_uses_det(self):
        assert not ip.use_det_bypass(112, 631)

    def test_negative_ratio_disables_rule(self):
        assert not ip.use_det_bypass(60, 600, width_height_ratio=-1)


def test_crop_box_slices_and_rot90():
    img = np.arange(100, dtype=np.uint8).reshape(10, 10)
    box = np.array([[2, 3], [8, 3], [8, 6], [2, 6]])
    crop = ip.crop_box(img, box)
    assert (crop == img[3:6, 2:8]).all()
    tall = np.array([[0, 0], [2, 0], [2, 9], [0, 9]])
    crop2 = ip.crop_box(img, tall)
    assert crop2.shape == (2, 9)  # rotated 90 (h/w >= 1.5)


def test_box_score_slow_polygon_vs_fast():
    from rapidocr_ray.functions.imgproc import box_score_fast, box_score_slow, min_area_rect

    pred = np.zeros((20, 20), dtype=np.float32)
    # L-shaped component: slow (hull) score < fast (rect) window differs
    pred[2:6, 2:12] = 0.9
    pred[6:12, 2:6] = 0.9
    pts = np.array([(x, y) for y in range(2, 12) for x in (2, 5, 11) if (y < 6 or x <= 5)],
                   dtype=np.float64)
    rect, _ = min_area_rect(pts)
    fast = box_score_fast(pred, rect)
    slow = box_score_slow(pred, pts)
    assert 0.0 < fast < 0.9
    assert slow >= fast  # hull hugs the ink tighter than the rect AABB


def test_db_postprocess_slow_mode_runs():
    from rapidocr_ray.functions.imgproc import db_postprocess

    pred = np.zeros((32, 64), dtype=np.float32)
    pred[8:20, 10:50] = 0.9
    boxes_f, scores_f = db_postprocess(pred, (32, 64, 1.0, 1.0), score_mode="fast")
    boxes_s, scores_s = db_postprocess(pred, (32, 64, 1.0, 1.0), score_mode="slow")
    # a solid rectangle scores identically in both modes
    assert np.array_equal(boxes_f, boxes_s)
    assert scores_f == scores_s
