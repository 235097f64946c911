"""Pipeline configuration — the new engine's analog of the reference's
YAML config system.

The reference describes a pipeline with four fixed sections
``Global/Det/Cls/Rec`` (python/rapidocr_onnxruntime/config.yaml:1-46)
and overrides them with kwargs routed by prefix ``det_*/cls_*/rec_*``
(python/rapidocr_onnxruntime/utils.py:218-287 ``UpdateParameters``) plus
per-call kwargs (rapid_ocr_api.py:58-65).  Here the same shape is a
frozen dataclass tree with ``with_overrides(**kw)`` doing the prefix
routing; configs are immutable once a pipeline is built (every task
runs its stages from a pickled config snapshot, never mutated
mid-pipeline).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

try:  # optional, present in this environment; config files are optional anyway
    import yaml  # type: ignore
except Exception:  # pragma: no cover
    yaml = None


@dataclass(frozen=True)
class GlobalConfig:
    """Analog of config.yaml ``Global:`` (rapid_ocr_api.py:58-77)."""

    text_score: float = 0.5          # M15 filter threshold (rapid_ocr_api.py:176-183)
    use_det: bool = True
    use_cls: bool = True
    use_rec: bool = True
    min_height: int = 30             # M17 det-bypass route (rapid_ocr_api.py:69-77)
    width_height_ratio: float = 8.0  # M17
    max_payload_bytes: int = 64 * 1024 * 1024  # skew guard: larger payloads
                                     # become typed error rows instead of
                                     # monopolizing an actor (SURVEY.md §4 skew)
    backend: str = "kernel"          # T2 session backend strategy
                                     # ('kernel' | 'contract', state/models.py)
    use_most_angle: bool = False     # A4 per-document angle vote (C++-only
                                     # feature, AngleNet.cpp:113-130): vote
                                     # over a doc's UNROTATED crop labels,
                                     # rotate all crops or none


@dataclass(frozen=True)
class DetConfig:
    """Analog of config.yaml ``Det:`` (ch_ppocr_v3_det/*)."""

    limit_side_len: int = 960        # M1 DetResizeForTest (ch_ppocr_v3_det/utils.py:144-211)
    limit_type: str = "max"          # 'min' | 'max'
    thresh: float = 0.3              # M6 DBPostProcess bitmap threshold (utils.py:257)
    box_thresh: float = 0.5          # M6 score filter
    max_candidates: int = 1000      # O3 contour cap (utils.py:286)
    unclip_ratio: float = 1.6        # M6 unclip offset = area*ratio/perimeter
    use_dilation: bool = True        # M6 optional 2x2 dilation
    score_mode: str = "fast"         # A3: 'fast' = bbox-mask mean
    min_box_side: int = 3            # M6 mini-box drop / M7 filter threshold


@dataclass(frozen=True)
class ClsConfig:
    """Analog of config.yaml ``Cls:`` (ch_ppocr_v2_cls/*)."""

    cls_image_shape: tuple = (3, 48, 192)  # M10 resize target
    cls_batch_num: int = 6                 # micro-batch (text_cls.py:51-53)
    cls_thresh: float = 0.9                # M12 rotate threshold
    label_list: tuple = ("0", "180")


@dataclass(frozen=True)
class RecConfig:
    """Analog of config.yaml ``Rec:`` (ch_ppocr_v3_rec/*)."""

    rec_img_shape: tuple = (3, 48, 320)    # M13 target (h fixed, w dynamic)
    rec_batch_num: int = 6                 # micro-batch (text_recognize.py:53-56)


@dataclass(frozen=True)
class HtmlConfig:
    """The HTML fast path — graft analog of det-box scoring (M6/M15):
    per-block score, threshold filter, reading-order concat (A5)."""

    min_text_len: int = 1            # blocks shorter than this are dropped outright
    max_link_ratio: float = 0.5      # blocks with more link-text than this are boilerplate
    min_block_score: float = 10.0    # text-density score threshold (box_thresh analog)
    join_sep: str = "\n"             # A5: '\n'.join over surviving blocks (OcrLite.cpp:206-210)


@dataclass(frozen=True)
class RayConfig:
    """Physical execution knobs (SURVEY.md §4).  The Ray plan has none
    to set: both extraction stages map whole blocks in fused tasks
    (pipelines/extract.py, ``DEFAULT_ROWS_PER_BLOCK``).  These sizes
    slice an in-process run of the same two stages, such as the
    benchmark's serial pass (perfbench/traced.py)."""

    batch_size_docs: int = 64        # rows per decode/route/html call
    batch_size_bitmap: int = 16      # rows per cascade call


@dataclass(frozen=True)
class PipelineConfig:
    Global: GlobalConfig = field(default_factory=GlobalConfig)
    Det: DetConfig = field(default_factory=DetConfig)
    Cls: ClsConfig = field(default_factory=ClsConfig)
    Rec: RecConfig = field(default_factory=RecConfig)
    Html: HtmlConfig = field(default_factory=HtmlConfig)
    Ray: RayConfig = field(default_factory=RayConfig)

    _PREFIXES = {
        "det_": "Det", "cls_": "Cls", "rec_": "Rec",
        "html_": "Html", "ray_": "Ray",
    }

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        """Prefix-routed overrides, the ``UpdateParameters`` analog
        (python/rapidocr_onnxruntime/utils.py:218-287).

        ``det_box_thresh=0.6`` routes to ``Det.box_thresh``; unprefixed
        names route to ``Global`` if they are fields there.  The cls
        section's own field names start with ``cls_`` in the reference
        config, so both ``cls_thresh`` and ``cls_cls_thresh`` resolve.
        """
        updates: dict[str, dict[str, Any]] = {}
        for key, value in kwargs.items():
            for prefix, section in self._PREFIXES.items():
                if key.startswith(prefix):
                    sec_cls = type(getattr(self, section))
                    names = {f.name for f in dataclasses.fields(sec_cls)}
                    stripped = key[len(prefix):]
                    # cls_* section fields keep their cls_ prefix in the
                    # reference yaml; accept both spellings.
                    fname = key if key in names else stripped
                    if fname in names:
                        updates.setdefault(section, {})[fname] = value
                        break
            else:
                gnames = {f.name for f in dataclasses.fields(GlobalConfig)}
                if key in gnames:
                    updates.setdefault("Global", {})[key] = value
                else:
                    raise KeyError(f"unknown config override: {key!r}")
        sections = {}
        for section, kv in updates.items():
            sections[section] = dataclasses.replace(getattr(self, section), **kv)
        return dataclasses.replace(self, **sections)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        sections = {}
        for name in ("Global", "Det", "Cls", "Rec", "Html", "Ray"):
            if name in d:
                sec_cls = type(getattr(cls(), name))
                sections[name] = sec_cls(**d[name])
        return cls(**sections)

    @classmethod
    def from_yaml(cls, path: str) -> "PipelineConfig":
        """S5 ``read_yaml`` analog (utils.py:158-169)."""
        if yaml is None:  # pragma: no cover
            raise RuntimeError("pyyaml not available")
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(yaml.safe_load(f))


DEFAULT_CONFIG = PipelineConfig()
