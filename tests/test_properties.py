"""Property-based tests (hypothesis) — beyond the reference's
golden-only strategy (SURVEY.md §5): randomized inputs exercise the
kernels' invariants instead of fixed fixtures."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rapidocr_ray import glyphs
from rapidocr_ray.functions import imgproc as ip
from rapidocr_ray.functions.ctc import CHAR_DICT, ctc_greedy_decode
from rapidocr_ray.functions.hashing import MinHasher, jaccard, shingle_set_hashes

# text drawn from the glyph charset, no leading/trailing/double spaces
charset_word = st.text(alphabet=list(glyphs.KEYS), min_size=1, max_size=10)
line_strategy = st.lists(charset_word, min_size=1, max_size=8).map(" ".join)


@settings(max_examples=25, deadline=None)
@given(line_strategy)
def test_rec_roundtrip_any_charset_line(line):
    """render -> recognize is the identity for any charset line."""
    from rapidocr_ray.config import PipelineConfig
    from rapidocr_ray.stages.cascade import TextRecognizer

    rec = TextRecognizer(PipelineConfig().Rec)
    [(text, score)] = rec([glyphs.render_line(line)])
    assert text == line
    assert score >= 0.5


@settings(max_examples=20, deadline=None)
@given(st.integers(8, 300), st.integers(8, 1200))
def test_det_resize_invariants(h, w):
    """x32 rounding + ratio bookkeeping hold for any size."""
    img = np.zeros((h, w), dtype=np.uint8)
    try:
        out, (sh, sw, rh, rw) = ip.det_resize(img, 960, "max")
    except ValueError:
        return  # degenerate rounding-to-zero path
    assert out.shape[0] % 32 == 0 and out.shape[1] % 32 == 0
    assert max(out.shape) <= 960 + 16  # rounding can exceed the limit by < 16
    assert rh == out.shape[0] / sh and rw == out.shape[1] / sw


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), min_size=1, max_size=12))
def test_sorted_boxes_is_permutation(corners):
    boxes = np.stack(
        [
            np.array([[x, y], [x + 20, y], [x + 20, y + 10], [x, y + 10]], dtype=np.int32)
            for x, y in corners
        ]
    )
    out = ip.sorted_boxes(boxes)
    assert len(out) == len(boxes)
    key = lambda b: tuple(np.asarray(b).reshape(-1))
    assert sorted(map(key, out)) == sorted(map(key, boxes))
    # no box with strictly smaller y (by >= 10) appears after one below it
    ys = [b[0][1] for b in out]
    for i in range(len(ys) - 1):
        assert ys[i + 1] >= ys[i] - 9


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, len(CHAR_DICT) - 1), min_size=1, max_size=30),
)
def test_ctc_decode_invariants(idx_seq):
    """Decode never emits blanks and never emits adjacent repeats from
    a run of equal indices."""
    n_cls = len(CHAR_DICT)
    logits = np.zeros((1, len(idx_seq), n_cls), dtype=np.float32)
    for t, i in enumerate(idx_seq):
        logits[0, t, i] = 1.0
    [(text, _)] = ctc_greedy_decode(logits)
    # length equals number of collapsed non-blank runs
    runs = []
    for i in idx_seq:
        if not runs or runs[-1] != i:
            runs.append(i)
    expect = "".join(CHAR_DICT[i] for i in runs if i != 0)
    assert text == expect


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 2**63), st.integers(2, 40))
def test_minhash_estimate_bounds(seed_a, seed_b, n_words):
    """Signature agreement is a [0,1] estimator; identical sets give 1."""
    rng = np.random.default_rng(seed_a % 2**32)
    words = [f"w{i}" for i in rng.integers(0, 50, n_words)]
    text = " ".join(words)
    sh = shingle_set_hashes(text)
    mh = MinHasher(64, seed=7)
    sig = mh.signature(sh)
    assert float((sig == mh.signature(sh)).mean()) == 1.0
    rng2 = np.random.default_rng(seed_b % 2**32)
    other = " ".join(f"w{i}" for i in rng2.integers(0, 50, n_words))
    est = float((sig == mh.signature(shingle_set_hashes(other))).mean())
    assert 0.0 <= est <= 1.0


@settings(max_examples=10, deadline=None)
@given(st.lists(line_strategy, min_size=1, max_size=4))
# a long line M10 squeezes 2:1 loses its one-pixel glyph anchors below
# the cls ink threshold; cls must still read it upright
@example(["0", "0", "0", "0 0 0 00 000 0000 0000000000 0000000000"])
def test_oracle_page_roundtrip_property(lines):
    """Full-cascade property: any charset page (det path geometry)
    recovers its lines byte-for-byte in order.

    Precondition (matches the synthesis contract, wrap_lines): lines
    have no leading/trailing spaces — trailing whitespace renders as
    blank glyphs with no ink, which OCR cannot observe (hypothesis
    found the naive [:48] truncation violating this)."""
    from rapidocr_ray.pipelines.oracle import OracleExtractor

    lines = [ln[:48].strip() or "x" for ln in lines]
    page = glyphs.render_page(lines, margin=28, line_gap=32)
    row = OracleExtractor().extract_one("u", None, glyphs.encode_rbmp(page), "en")
    assert row["extracted_text"] == "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=30),
    st.integers(min_value=0, max_value=2**31),
)
def test_min_area_rect_properties(n_pts, seed):
    """All points lie inside the rect (within epsilon); rect area never
    exceeds the AABB area; rotating the point set leaves the rect area
    invariant (rotation-equivariance of the calipers)."""
    from rapidocr_ray.functions.imgproc import min_area_rect

    rng = np.random.default_rng(seed)
    pts = rng.random((n_pts, 2)) * 100
    box, sside = min_area_rect(pts)
    u = box[1] - box[0]
    v = box[3] - box[0]
    w = np.linalg.norm(u)
    h = np.linalg.norm(v)
    aabb = (pts[:, 0].ptp()) * (pts[:, 1].ptp())
    assert w * h <= aabb + 1e-6
    assert abs(min(w, h) - sside) < 1e-9
    # containment: project points on the rect axes
    if w > 0 and h > 0:
        rel = pts - box[0]
        pu = rel @ (u / w)
        pv = rel @ (v / h)
        assert (pu > -1e-6).all() and (pu < w + 1e-6).all()
        assert (pv > -1e-6).all() and (pv < h + 1e-6).all()
    # rotation invariance of the minimal area
    th = rng.random() * np.pi
    r = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    box2, _ = min_area_rect(pts @ r)
    w2 = np.linalg.norm(box2[1] - box2[0])
    h2 = np.linalg.norm(box2[3] - box2[0])
    assert abs(w2 * h2 - w * h) < 1e-5 * max(1.0, w * h)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31),
)
def test_bilinear_4x_inversion_property(h, w, seed):
    """The M13 contract generalized: 4x bilinear upscale of ANY binary
    image is exactly inverted by thresholded [1::4, 1::4] sampling."""
    from rapidocr_ray.functions.imgproc import resize_bilinear

    rng = np.random.default_rng(seed)
    band = (rng.random((h, w)) < 0.5).astype(np.uint8) * 255
    up = resize_bilinear(band, 4 * h, 4 * w)
    assert np.array_equal(up[1::4, 1::4] > 127, band > 127)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_fill_poly_area_property(seed):
    """Filled-quad pixel count tracks the shoelace area within a
    perimeter-proportional rasterization band."""
    from rapidocr_ray.functions.imgproc import fill_poly_mask, min_area_rect

    rng = np.random.default_rng(seed)
    pts = rng.random((8, 2)) * 40 + 5
    quad, _ = min_area_rect(pts)
    # A tilted rect around the points can reach past the point box; move it
    # onto the canvas so the mask is not clipped.
    quad = quad - quad.min(axis=0) + 5
    size = int(np.ceil(quad.max())) + 5
    x, y = quad[:, 0], quad[:, 1]
    area = 0.5 * abs(
        sum(x[i] * y[(i + 1) % 4] - x[(i + 1) % 4] * y[i] for i in range(4))
    )
    per = sum(np.linalg.norm(quad[i] - quad[(i + 1) % 4]) for i in range(4))
    mask = fill_poly_mask((size, size), quad)
    assert abs(int(mask.sum()) - area) <= per + 8


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400), st.integers(0, 3))
def test_webp_fuzz_typed_errors_only(tail, variant):
    """Crawl-triage contract fuzz: any bytes passing the RIFF/WEBP
    sniff must decode to an ndarray or raise ValueError /
    NotImplementedError — never struct.error / IndexError / KeyError.
    Variants seed plausible structure (VP8L sig, chunk headers) so the
    fuzz reaches past the container walk into the bitstream decoder."""
    import struct as _struct

    from rapidocr_ray.functions.codecs import decode_page_image

    if variant == 0:
        body = b"WEBP" + tail
    elif variant == 1:
        body = b"WEBPVP8L" + _struct.pack("<I", len(tail) + 1) + b"\x2f" + tail
    elif variant == 2:
        body = b"WEBPVP8L" + _struct.pack("<I", len(tail)) + tail
    else:
        body = b"WEBPVP8X" + _struct.pack("<I", 10) + bytes(10) + tail
    payload = b"RIFF" + _struct.pack("<I", len(body)) + body
    try:
        out = decode_page_image(payload)
        assert out.ndim == 2
    except (ValueError, NotImplementedError):
        pass


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1), st.data())
def test_webp_truncation_never_escapes(h, w, seed, data):
    """Every prefix truncation of a VALID webp container either decodes
    (only the full payload) or raises a typed error."""
    import numpy as np

    from rapidocr_ray.functions.codecs import decode_page_image
    from rapidocr_ray.functions.webp import encode_webp

    img = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    payload = encode_webp(img)
    cut = data.draw(st.integers(0, len(payload) - 1))
    try:
        decode_page_image(payload[:cut])
    except (ValueError, NotImplementedError):
        pass


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=200), st.integers(1, 4))
def test_frame_scan_fuzz_typed_errors_only(tail, every_k):
    """Frame streams built from a valid frame plus arbitrary bytes must
    either scan cleanly or raise ValueError/NotImplementedError — never
    struct.error (the FrameSampleStage typed-error contract)."""
    import numpy as np

    from rapidocr_ray import glyphs
    from rapidocr_ray.stages.multimodal import frame_scan_sample

    frame = glyphs.encode_rbmp(np.full((4, 6), 9, np.uint8))
    for payload in (frame + tail, bytes(tail[:4]) + tail):
        try:
            total, frames = frame_scan_sample(payload, every_k=every_k)
            assert total >= len(frames)
        except (ValueError, NotImplementedError):
            pass


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 40),   # vocabulary size
    st.integers(4, 64),   # MG capacity
    st.integers(0, 2**31),
)
def test_misra_gries_never_drops_heavy_hitter(vocab_n, m, seed):
    """For ANY counter set and capacity, MG compression keeps every
    token whose weight exceeds the returned decrement, and every kept
    weight is a lower bound undercut by at most that decrement."""
    from rapidocr_ray.stages.sketches import mg_compress

    rng = np.random.default_rng(seed)
    tokens = np.array([f"t{i}" for i in range(vocab_n)], dtype=object)
    weights = rng.integers(1, 500, vocab_n).astype(np.int64)
    t, w, dec = mg_compress(tokens, weights, m)
    assert len(t) < max(m, vocab_n + 1)
    kept = dict(zip(t, w))
    for tok, n in zip(tokens, weights):
        assert kept.get(tok, 0) >= n - dec
        if tok in kept:
            assert 0 < kept[tok] <= n


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4000), st.integers(0, 2**31), st.integers(1, 8))
def test_hll_merge_and_monotonicity(n, seed, parts):
    """Register merge equals single-pass on any split, and adding
    hashes never lowers any register (monotone sketch)."""
    from rapidocr_ray.stages.sketches import hll_registers

    rng = np.random.default_rng(seed)
    h = rng.integers(0, 1 << 64, n, dtype=np.uint64)
    chunks = np.array_split(h, min(parts, n))
    merged = np.maximum.reduce([hll_registers(c, 10) for c in chunks])
    full = hll_registers(h, 10)
    assert np.array_equal(merged, full)
    more = hll_registers(np.concatenate([h, rng.integers(0, 1 << 64, 16, dtype=np.uint64)]), 10)
    assert np.all(more >= full)
