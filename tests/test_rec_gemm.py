"""The rec matched filter as one GEMM must reproduce the broadcast
L1 matcher and its +/-1 px retry loop bit for bit.

``_ref_line_logits`` / ``_ref_bands_to_logits`` are verbatim copies of
the broadcast implementation the GEMM replaced; every test compares
``RecModel`` against them with ``np.array_equal``."""

import numpy as np
import pytest

from rapidocr_ray import glyphs
from rapidocr_ray.glyphs import GLYPH_ADVANCE, GLYPH_H, GLYPH_W, TEMPLATES
from rapidocr_ray.state.models import N_CLASSES, RecModel

THRESH = RecModel.OFFSET_SEARCH_THRESH
OFFSETS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


def _ref_line_logits(ink: np.ndarray) -> np.ndarray:
    rows = np.flatnonzero(ink.any(axis=1))
    cols = np.flatnonzero(ink.any(axis=0))
    if rows.size == 0 or cols.size == 0:
        return np.zeros((0, N_CLASSES), dtype=np.float32)
    band = ink[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    bh, bw = band.shape
    n_chars = (bw - 1) // GLYPH_ADVANCE + 1
    canvas = np.zeros((GLYPH_H + 2, n_chars * GLYPH_ADVANCE + 2), dtype=np.float32)
    canvas[1:1 + min(GLYPH_H + 1, bh), 1:1 + bw] = band[:GLYPH_H + 1, :]
    core = canvas[1:1 + GLYPH_H, 1:]
    isz = canvas.itemsize
    windows = np.lib.stride_tricks.as_strided(
        core,
        shape=(n_chars, GLYPH_H, GLYPH_W),
        strides=(GLYPH_ADVANCE * isz, canvas.shape[1] * isz, isz),
    )
    diff = np.abs(windows[:, None, :, :] - TEMPLATES[None, :, :, :])
    match = 1.0 - diff.sum(axis=(2, 3)) / float(GLYPH_H * GLYPH_W)  # [n, C-1]
    weak = np.flatnonzero(match.max(axis=1) < RecModel.OFFSET_SEARCH_THRESH)
    for k in weak:
        best = match[k]
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                y0 = 1 + dy
                x0 = 1 + k * GLYPH_ADVANCE + dx
                win = canvas[y0:y0 + GLYPH_H, x0:x0 + GLYPH_W]
                if win.shape != (GLYPH_H, GLYPH_W):
                    continue
                m = 1.0 - np.abs(win[None] - TEMPLATES).sum(axis=(1, 2)) / float(
                    GLYPH_H * GLYPH_W
                )
                if m.max() > best.max():
                    best = m
        match[k] = best
    logits = np.zeros((n_chars, N_CLASSES), dtype=np.float32)
    logits[:, 0] = 0.3
    logits[:, 1:] = match
    return logits


def _ref_bands_to_logits(inks: list[np.ndarray]) -> np.ndarray:
    per_item: list[np.ndarray] = []
    max_chars = 0
    for ink in inks:
        logits = _ref_line_logits(ink)
        max_chars = max(max_chars, logits.shape[0])
        per_item.append(logits)
    t_total = 2 * max_chars + 1
    out = np.zeros((len(inks), t_total, N_CLASSES), dtype=np.float32)
    out[:, :, 0] = 1.0
    for i, logits in enumerate(per_item):
        for k in range(logits.shape[0]):
            out[i, 2 * k + 1, :] = logits[k]
    return out


def _scores(win: np.ndarray) -> np.ndarray:
    """Broadcast match scores of one [GLYPH_H, GLYPH_W] window."""
    win = win.astype(np.float32)
    return 1.0 - np.abs(win[None] - TEMPLATES).sum(axis=(1, 2)) / float(GLYPH_H * GLYPH_W)


def _assert_exact(inks: list[np.ndarray]) -> None:
    for ink in inks:
        assert np.array_equal(RecModel._line_logits(ink), _ref_line_logits(ink))
    assert np.array_equal(RecModel().infer_bands(inks), _ref_bands_to_logits(inks))


def _n_weak(ink: np.ndarray) -> int:
    """Windows of ``ink`` whose direct match sends them to the retry."""
    rows = np.flatnonzero(ink.any(axis=1))
    cols = np.flatnonzero(ink.any(axis=0))
    if rows.size == 0:
        return 0
    band = ink[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    n = (band.shape[1] - 1) // GLYPH_ADVANCE + 1
    canvas = np.zeros((GLYPH_H, n * GLYPH_ADVANCE), dtype=np.float32)
    canvas[:min(GLYPH_H, band.shape[0]), :band.shape[1]] = band[:GLYPH_H]
    return sum(
        _scores(canvas[:, k * GLYPH_ADVANCE:k * GLYPH_ADVANCE + GLYPH_W]).max() < THRESH
        for k in range(n)
    )


@pytest.mark.parametrize("density", [0.15, 0.5, 0.85])
def test_random_binary_bands(density):
    rng = np.random.default_rng(7)
    for _ in range(6):
        inks = []
        for _ in range(int(rng.integers(1, 8))):
            h = int(rng.integers(GLYPH_H - 2, GLYPH_H + 4))
            # widths on, and just off, a glyph-advance multiple
            w = int(rng.choice([GLYPH_ADVANCE * int(rng.integers(1, 6)),
                                int(rng.integers(1, 60))]))
            inks.append(rng.random((h, w)) < density)
        _assert_exact(inks)


def _jittered_line(text: str, cut: int, dy: int, dx: int) -> np.ndarray:
    """Glyph line whose characters from ``cut`` on are moved by
    (dy, dx) px: dy=1 drops them one row, dx=+1 widens the gap before
    them, dx=-1 closes it."""
    line = glyphs.render_line(text) > 127
    x = cut * GLYPH_ADVANCE
    head, tail = line[:, :x], line[:, x:]
    if dx < 0:
        head = head[:, :-1]
    elif dx > 0:
        head = np.pad(head, ((0, 0), (0, dx)))
    out = np.zeros((GLYPH_H + 1, head.shape[1] + tail.shape[1]), dtype=bool)
    out[:GLYPH_H, :head.shape[1]] = head
    out[dy:dy + GLYPH_H, head.shape[1]:] = tail
    return out


def test_shifted_glyph_lines_fire_the_retry():
    texts = ["hello world", "aabbcc", "x", "0123456789.,:;", "ready? (yes)"]
    inks = []
    for text in texts:
        for dy in (0, 1):
            for dx in (-1, 0, 1):
                if (dy, dx) == (0, 0):
                    continue
                ink = _jittered_line(text, cut=len(text) // 2, dy=dy, dx=dx)
                inks.append(ink)
                if len(text) > 1:
                    assert _n_weak(ink) > 0, (text, dy, dx)
    _assert_exact(inks)
    # the retry recovers the jittered text
    decoded = RecModel._line_logits(_jittered_line("hello world", 5, 1, 1))
    assert "".join(glyphs.CHARSET[j] for j in decoded[:, 1:].argmax(axis=1)) == "hello world"


def _find_tie(direct_ties: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A one-character band whose direct match is weak and whose best
    retry score is reached by two candidates with different score
    vectors: two offsets (``direct_ties`` False) or the direct match and
    an offset (``direct_ties`` True).  Returns the band and the two
    tied candidates' scores in candidate order."""
    rng = np.random.default_rng(11)
    for _ in range(20_000):
        band = rng.random((GLYPH_H + 1, GLYPH_W)) < 0.5
        band[0, 0] = band[-1, -1] = True  # keep the tight band as drawn
        canvas = np.zeros((GLYPH_H + 3, GLYPH_ADVANCE + 2), dtype=np.float32)
        canvas[1:GLYPH_H + 2, 1:GLYPH_W + 1] = band
        direct = _scores(canvas[1:1 + GLYPH_H, 1:1 + GLYPH_W])
        if direct.max() >= THRESH:
            continue
        cands = [direct] + [
            _scores(canvas[1 + dy:1 + dy + GLYPH_H, 1 + dx:1 + dx + GLYPH_W])
            for dy, dx in OFFSETS
        ]
        tops = [c.max() for c in cands]
        best = [i for i, t in enumerate(tops) if t == max(tops)]
        if len(best) < 2 or (best[0] == 0) != direct_ties:
            continue
        if not np.array_equal(cands[best[0]], cands[best[1]]):
            return band, cands[best[0]], cands[best[1]]
    raise AssertionError("no tie found")


@pytest.mark.parametrize("direct_ties", [False, True])
def test_tie_order_first_candidate_wins(direct_ties):
    band, first, second = _find_tie(direct_ties)
    got = RecModel._line_logits(band)
    assert np.array_equal(got[0, 1:], first)
    assert not np.array_equal(got[0, 1:], second)
    assert np.array_equal(got, _ref_line_logits(band))
    # the same tie inside a stacked call, next to bands that fire
    # their own retries
    _assert_exact([_jittered_line("tie here", 4, 1, 0), band, band[:, ::-1]])


def test_empty_and_one_character_bands():
    one = glyphs.render_line("q") > 127
    empty = np.zeros((GLYPH_H, 20), dtype=bool)
    assert RecModel._line_logits(empty).shape == (0, N_CLASSES)
    assert RecModel._line_logits(np.zeros((0, 0), dtype=bool)).shape == (0, N_CLASSES)
    _assert_exact([empty])
    _assert_exact([one])
    _assert_exact([empty, one, empty])
    assert RecModel().infer_bands([]).shape == (0, 1, N_CLASSES)
    assert RecModel().infer_bands([empty, empty]).shape == (2, 1, N_CLASSES)
