"""Config prefix-override routing (UpdateParameters analog, §2.9)."""

import pytest

from rapidocr_ray.config import PipelineConfig


def test_prefix_routing():
    cfg = PipelineConfig().with_overrides(
        det_box_thresh=0.7, rec_rec_batch_num=16, text_score=0.9
    )
    assert cfg.Det.box_thresh == 0.7
    assert cfg.Rec.rec_batch_num == 16
    assert cfg.Global.text_score == 0.9


def test_cls_double_prefix_both_spellings():
    cfg = PipelineConfig().with_overrides(cls_thresh=0.8)
    assert cfg.Cls.cls_thresh == 0.8
    cfg2 = PipelineConfig().with_overrides(cls_cls_thresh=0.7)
    assert cfg2.Cls.cls_thresh == 0.7


@pytest.mark.parametrize(
    "key",
    [
        "bogus_knob",
        # knobs of the removed unfused det/cls/rec plan: a stale override
        # must fail loudly, not be silently accepted
        "ray_fuse_cascade",
        "ray_det_concurrency",
        "ray_cls_concurrency",
        "ray_rec_concurrency",
        "ray_batch_size_regions",
        "ray_cascade_concurrency",
    ],
)
def test_unknown_key_raises(key):
    with pytest.raises(KeyError):
        PipelineConfig().with_overrides(**{key: 1})


def test_immutable():
    cfg = PipelineConfig()
    cfg2 = cfg.with_overrides(det_thresh=0.4)
    assert cfg.Det.thresh == 0.3 and cfg2.Det.thresh == 0.4


def test_from_dict():
    cfg = PipelineConfig.from_dict({"Det": {"limit_side_len": 1024}})
    assert cfg.Det.limit_side_len == 1024
    assert cfg.Cls.cls_thresh == 0.9
