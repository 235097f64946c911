"""Stage + e2e goldens for the det->cls->rec cascade, mirroring the
reference's test strategy (SURVEY.md §5: test_det / test_cls / test_rec
/ test_all_ort analogs over deterministic fixtures, FIXTURES.md F2)."""

import numpy as np
import pytest

from rapidocr_ray import glyphs
from rapidocr_ray.config import PipelineConfig
from rapidocr_ray.pipelines.oracle import OracleExtractor
from rapidocr_ray.stages.cascade import (
    TextClassifier,
    TextDetector,
    TextRecognizer,
    cls_resize_norm,
    rec_resize_norm,
)

CFG = PipelineConfig()


@pytest.fixture(scope="module")
def oracle():
    return OracleExtractor(CFG)


def page_of(lines, rotate180=False, single=False):
    margin = 8 if single else 28
    return glyphs.render_page(lines, margin=margin, line_gap=32, rotate180=rotate180)


class TestDetStage:
    """test_det.py analog: exact box count + shape (N, 4, 2)."""

    def test_box_count_and_shape(self):
        det = TextDetector(CFG.Det)
        lines = ["alpha beta gamma", "delta epsilon", "zeta eta theta iota"]
        boxes = det(page_of(lines))
        assert boxes.shape == (3, 4, 2)
        assert boxes.dtype == np.int32

    def test_empty_page_no_boxes(self):
        det = TextDetector(CFG.Det)
        boxes = det(np.zeros((128, 256), dtype=np.uint8))
        assert boxes.shape[0] == 0

    def test_boxes_cover_lines(self):
        det = TextDetector(CFG.Det)
        lines = ["topline words", "bottomline words"]
        boxes = det(page_of(lines))
        ys = sorted(b[0][1] for b in boxes)
        assert ys[0] < 28 <= ys[1]  # first box above line 1 start, second below


class TestClsStage:
    """test_cls.py analog: rotated crop labels '180' with score > 0.9."""

    def test_upright_label_0(self):
        cls = TextClassifier(CFG.Cls)
        crop = glyphs.render_line("hello world")
        _, [(label, score)] = cls([crop])
        assert label == "0"
        assert score > 0.9

    def test_rotated_label_180_and_rotated_back(self):
        cls = TextClassifier(CFG.Cls)
        crop = glyphs.render_line("hello world")[::-1, ::-1].copy()
        fixed, [(label, score)] = cls([crop])
        assert label == "180"
        assert score > 0.9
        assert (fixed[0] == glyphs.render_line("hello world")).all()

    def test_label_all_charset(self):
        cls = TextClassifier(CFG.Cls)
        crops = [glyphs.render_line(c * 3) for c in glyphs.KEYS]
        _, res = cls(crops)
        assert all(label == "0" for label, _ in res)
        crops_rot = [c[::-1, ::-1].copy() for c in crops]
        _, res_rot = cls(crops_rot)
        assert all(label == "180" and s > 0.9 for label, s in res_rot)


class TestRecStage:
    """test_rec.py analog: byte-exact decode of a known line."""

    def test_golden_line(self):
        rec = TextRecognizer(CFG.Rec)
        [(text, score)] = rec([glyphs.render_line("korean restaurant 24")])
        assert text == "korean restaurant 24"
        assert score > CFG.Global.text_score

    def test_full_charset_roundtrip(self):
        rec = TextRecognizer(CFG.Rec)
        line = glyphs.KEYS  # every non-space char once
        [(text, _)] = rec([glyphs.render_line(line)])
        assert text == line

    def test_doubles_not_collapsed(self):
        rec = TextRecognizer(CFG.Rec)
        [(text, _)] = rec([glyphs.render_line("aabb cc11..")])
        assert text == "aabb cc11.."

    def test_batch_composition_invariant(self):
        """A1/M13: the micro-batch's max_wh_ratio pad width must not
        change any decode (SURVEY.md M13 note)."""
        rec = TextRecognizer(CFG.Rec)
        short = glyphs.render_line("ab")
        long = glyphs.render_line("a much longer line of text here")
        alone = rec([short])[0]
        together = rec([short, long])[0]
        assert alone == together

    def test_fast_band_path_equals_contract_path(self):
        """RecModel.infer_bands must be bit-identical to the full M13
        tensor path (the hot path skips the 4x float32 round trip)."""
        import numpy as np

        from rapidocr_ray.stages.cascade import rec_resize_norm_ch0, tight_ink_crop
        from rapidocr_ray.state.models import RecModel

        rng = np.random.default_rng(5)
        m = RecModel()
        for _ in range(10):
            lines = []
            for _ in range(int(rng.integers(1, 5))):
                s = "".join(
                    glyphs.KEYS[i] if rng.random() > 0.15 else " "
                    for i in rng.integers(0, len(glyphs.KEYS), int(rng.integers(2, 40)))
                ).strip()
                lines.append(" ".join(s.split()) or "x")
            crops = [glyphs.render_line(ln) for ln in lines]
            ratios = [tight_ink_crop(c).shape[1] / 12 for c in crops]
            mwr = max([320 / 48] + ratios)
            planes = np.stack([rec_resize_norm_ch0(c, mwr) for c in crops])
            slow = m.infer(
                np.broadcast_to(planes[:, None], (len(crops), 3) + planes.shape[1:])
            )
            fast = m.infer_bands([tight_ink_crop(c) > 127 for c in crops])
            assert np.array_equal(slow, fast), lines

    def test_blank_crop_empty_low_score(self):
        rec = TextRecognizer(CFG.Rec)
        [(text, score)] = rec([np.zeros((12, 40), dtype=np.uint8)])
        assert text == ""
        assert score < CFG.Global.text_score


def test_preproc_shapes():
    crop = glyphs.render_line("abc")
    cls_t = cls_resize_norm(crop, CFG.Cls.cls_image_shape)
    assert cls_t.shape == (3, 48, 192)
    rec_t = rec_resize_norm(crop, 320 / 48, CFG.Rec.rec_img_shape)
    assert rec_t.shape == (3, 48, 320)
    assert rec_t.dtype == np.float32


class TestOracleE2E:
    """test_all_ort.py analog: full-cascade goldens."""

    def test_multiline_det_path(self, oracle):
        lines = ["the quick brown fox jumps", "over the lazy dog 0123456789"]
        row = oracle.extract_one("u", None, glyphs.encode_rbmp(page_of(lines)), "en")
        assert row["route"] == "bitmap"
        assert row["extracted_text"] == "\n".join(lines)
        assert row["n_spans"] == 2

    def test_rotated_page_reversed_line_order(self, oracle):
        """Reference semantics: det sorts boxes on the rotated page, cls
        fixes each crop — so a 180-degree page reads bottom-up."""
        lines = ["first line words", "second line words", "third line words"]
        payload = glyphs.encode_rbmp(page_of(lines, rotate180=True))
        row = oracle.extract_one("u", None, payload, "en")
        assert row["extracted_text"] == "\n".join(reversed(lines))

    def test_single_line_bypass_route(self, oracle):
        text = "a" * 200  # very wide single line, h=28 -> M17 bypass
        payload = glyphs.encode_rbmp(page_of([text], single=True))
        row = oracle.extract_one("u", None, payload, "en")
        assert row["extracted_text"] == text
        assert row["n_spans"] == 1

    def test_zeros_yields_null(self, oracle):
        """test_zeros analog (test_all_ort.py:38-41)."""
        payload = glyphs.encode_rbmp(np.zeros((200, 300), dtype=np.uint8))
        row = oracle.extract_one("u", None, payload, "en")
        assert row["extracted_text"] is None
        assert row["n_spans"] == 0

    def test_empty_payload_error_path(self, oracle):
        """test_empty analog (test_all_ort.py:30-35): typed error row,
        not an exception."""
        row = oracle.extract_one("u", None, b"", "en")
        assert row["route"] == "empty"
        assert row["extracted_text"] is None

    def test_text_score_1_filters_everything(self):
        """test_input_parameters analog (test_all_ort.py:66-71)."""
        cfg = PipelineConfig().with_overrides(text_score=1.1)
        ox = OracleExtractor(cfg)
        payload = glyphs.encode_rbmp(page_of(["some words here"]))
        row = ox.extract_one("u", None, payload, "en")
        assert row["extracted_text"] is None

    def test_oversize_payload_guard(self):
        """Skew guard: payloads above max_payload_bytes become typed
        error rows (SURVEY.md §4), same in pipeline and oracle."""
        cfg = PipelineConfig().with_overrides(max_payload_bytes=1024)
        ox = OracleExtractor(cfg)
        payload = glyphs.encode_rbmp(page_of(["abc def ghi jkl mno pqr"]))
        assert len(payload) > 1024
        row = ox.extract_one("u", None, payload, "en")
        assert row["route"] == "error"
        assert "max_payload_bytes" in row["err"]
        assert row["extracted_text"] is None

    def test_charset_stress(self, oracle):
        rng = np.random.default_rng(3)
        ks = glyphs.KEYS
        for _ in range(12):
            nl = int(rng.integers(1, 4))
            lines = []
            for _ in range(nl):
                n = int(rng.integers(1, 45))
                s = "".join(
                    ks[i] if rng.random() > 0.15 else " "
                    for i in rng.integers(0, len(ks), n)
                ).strip()
                s = " ".join(s.split()) or "x"
                lines.append(s[:48])
            payload = glyphs.encode_rbmp(page_of(lines))
            row = oracle.extract_one("u", None, payload, "en")
            assert row["extracted_text"] == "\n".join(lines), lines


def test_backend_swap_identical_outputs():
    """T2 backend strategy: the 'contract' backend (tensor-interface-only
    sessions, state/models.py BACKENDS) must produce byte-identical
    cascade results to the default 'kernel' backend on full pages —
    det boxes, cls labels and scores, rec output — upright and rotated
    180 degrees (where cls must flip every crop)."""
    from rapidocr_ray.config import PipelineConfig
    from rapidocr_ray.functions.imgproc import crop_box, sorted_boxes
    from rapidocr_ray.glyphs import render_page
    from rapidocr_ray.state.models import ModelRegistry
    from rapidocr_ray.stages.cascade import TextClassifier, TextDetector, TextRecognizer

    lines = ["backend parity line one", "and a second line"]
    pages = [render_page(lines, margin=28, line_gap=32),
             render_page(lines, margin=28, line_gap=32, rotate180=True)]
    results = {}
    for backend in ("kernel", "contract"):
        cfg = PipelineConfig()
        reg = ModelRegistry(backend)
        det = TextDetector(cfg.Det, reg)
        cls = TextClassifier(cfg.Cls, reg)
        rec = TextRecognizer(cfg.Rec, reg)
        out = []
        for page in pages:
            boxes = sorted_boxes(det(page))
            crops = [crop_box(page, np.asarray(b)) for b in boxes]
            crops, labels = cls(crops)
            out.append(([b.tolist() for b in boxes], labels, rec(crops)))
        results[backend] = out
    assert results["kernel"] == results["contract"]
    upright, flipped = results["kernel"]
    assert {label for label, _ in upright[1]} == {"0"}
    assert {label for label, _ in flipped[1]} == {"180"}
    assert [t for t, _ in flipped[2]] == lines[::-1]


def test_backend_unknown_rejected():
    import pytest as _pytest

    from rapidocr_ray.state.models import ModelRegistry

    with _pytest.raises(ValueError):
        ModelRegistry("onnx")
